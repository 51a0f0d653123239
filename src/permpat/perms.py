"""Permutations of {1..n} in one-line form, with pattern and jump calculus.

Conventions used throughout the package:

- Positions and values are 1-based everywhere; a permutation pi is stored as
  the word ``bytes((pi(1), ..., pi(n)))``, a ``Word``, and every word the
  package holds is ``bytes``: two words compare as their value tuples do.
- Composition is right to left: ``compose(f, g)(x) == f(g(x))``.  Every
  product of words is one ``bytes.translate`` by the one product table,
  ``_times``: ``r.translate(_times(s))`` is the word of s·r.  ``compose``,
  the group closures and the subgroup enumeration all multiply through it.
- The canonical order on permutations is lexicographic on the one-line word;
  every function returning a collection of permutations returns it sorted in
  this order.

All values are immutable; all operations are pure.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

#: Hard cap on the degree of a single permutation.  One-line words above this
#: size are outside the scope of every exhaustive routine in this package.
MAX_DEGREE = 16

Word = bytes


class CapExceeded(RuntimeError):
    """An enumeration or closure grew past its configured cap."""


class Perm:
    """An immutable permutation of {1..n} in one-line form."""

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int]):
        if not isinstance(word, bytes):
            word = tuple(word)
        object.__setattr__(self, "word", _check_permutation(word))

    @property
    def degree(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.word == other.word

    def __lt__(self, other: "Perm") -> bool:
        return self.word < other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Perm({format_perm(self)!r})"

    def __str__(self) -> str:
        return format_perm(self)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")


# ---------------------------------------------------------------------------
# raw-word helpers (hot paths take words, not Perms)
#
# Deleting a set D of values from a word and reducing what is left is one C
# call, shared by the pattern kernel and the level step:
# ``w.translate(table, gone)`` drops the values in
# ``gone == bytes(sorted(D))`` and lowers every other value x by the number of
# values of D below x.

def _deletion_table(gone: bytes) -> bytes:
    """The translate table for ``gone``, which must be ascending."""
    table = bytearray()
    start = 0
    for below, d in enumerate(gone):
        table.extend(range(start - below, d + 1 - below))
        start = d + 1
    table.extend(range(start - len(gone), 256 - len(gone)))
    return bytes(table)


@functools.lru_cache(maxsize=None)
def _deletion_tables(n: int, length: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """``(tables, gones)``: for every set of n - length values from 1..n, in
    ``itertools.combinations`` order, its bytes and its translate table.  So
    with length n - 1, entry v - 1 deletes the value v.  Built on first use
    and kept; empty when ``length`` exceeds n."""
    if length > n:
        return (), ()
    gones = tuple(map(bytes, itertools.combinations(range(1, n + 1), n - length)))
    return tuple(map(_deletion_table, gones)), gones


def _delete_word(word: Word, i0: int) -> Word:
    # pattern obtained by deleting 0-based position i0
    tables, gones = _deletion_tables(len(word), len(word) - 1)
    v = word[i0]
    return word.translate(tables[v - 1], gones[v - 1])


def _pattern_words(words: Iterable[Word], length: int) -> set[Word]:
    """The length-``length`` patterns of all the words: one translate of each
    word per set of values it can lose.  Words shorter than ``length``
    contribute nothing."""
    found: set[Word] = set()
    for w in words:
        found.update(map(w.translate, *_deletion_tables(len(w), length)))
    return found


_IDENTITY_TABLE = bytes(range(256))


def _times(s: Word) -> bytes:
    """The left multiplication by ``s`` as a translate table:
    ``r.translate(_times(s))`` is s·r, the word of x -> s(r(x)), for every
    word r of the degree of ``s``.  The package's one product table."""
    return b"\0" + s + _IDENTITY_TABLE[len(s) + 1 :]


def _compose_words(f: Word, g: Word) -> Word:
    return g.translate(_times(f))


def _inverse_word(word: Word) -> Word:
    # the table sending w(x) to x, read at the values 1..n
    ident = _IDENTITY_TABLE[1 : len(word) + 1]
    return ident.translate(bytes.maketrans(word, ident))


def _is_even_word(word: Sequence[int]) -> bool:
    # parity of the inversion count, via cycle structure: even iff
    # n - (#cycles) is even
    n = len(word)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = word[j] - 1
    return (n - cycles) % 2 == 0


# ---------------------------------------------------------------------------
# constructors

# The identity, the reversal and the natural cycle are built once per degree
# and kept, like every memo in the package, in a ``functools.lru_cache``: a
# ``Perm`` is immutable, and every closure starts from ``ascending(n).word``.
# A refused degree raises and is not kept.

@functools.lru_cache(maxsize=None)
def ascending(n: int) -> Perm:
    """The identity word 1 2 ... n."""
    _check_degree(n)
    return Perm(range(1, n + 1))


@functools.lru_cache(maxsize=None)
def descending(n: int) -> Perm:
    """The reversal word n (n-1) ... 1."""
    _check_degree(n)
    return Perm(range(n, 0, -1))


@functools.lru_cache(maxsize=None)
def natural_cycle(n: int) -> Perm:
    """The word 2 3 ... n 1, i.e. the cycle (1 2 ... n)."""
    _check_degree(n)
    return Perm(tuple(range(2, n + 1)) + (1,))


def dja(n: int, length: int) -> Perm:
    """Descending block followed by ascending: descending(length) (+) ascending(n-length)."""
    _check_block(n, length)
    return Perm(tuple(range(length, 0, -1)) + tuple(range(length + 1, n + 1)))


def ajd(n: int, length: int) -> Perm:
    """Ascending block followed by descending: ascending(n-length) (+) descending(length)."""
    _check_block(n, length)
    return Perm(tuple(range(1, n - length + 1)) + tuple(range(n, n - length, -1)))


def _check_permutation(word: Sequence[int]) -> Word:
    """Refuse a word that is not a permutation of 1..n, n = len(word), with
    1 <= n <= MAX_DEGREE: the check behind ``Perm`` and the group closure.
    Return the word as exact ``bytes``.

    The word is checked as ``bytes`` by one translate: deleting its values
    from 1..n leaves nothing exactly when each of 1..n occurs in it, and
    with n values that makes it a permutation."""
    n = len(word)
    _check_degree(n)
    try:
        b = bytes(word)
    except (TypeError, ValueError):  # 1.0 or "2", or a value outside 0..255
        pass
    else:
        if not _IDENTITY_TABLE[1 : n + 1].translate(None, b):
            return b
    raise ValueError(f"not a permutation of 1..{n}: {tuple(word)!r}")


def _check_degree(n: int) -> None:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {n}")


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be >= 1")


def _check_level_degree(m: int) -> None:
    if m > MAX_DEGREE:
        raise CapExceeded(f"level degree {MAX_DEGREE + 1} exceeds the cap {MAX_DEGREE}")


def _check_block(n: int, length: int) -> None:
    _check_degree(n)
    if not 1 <= length <= n:
        raise ValueError(f"block length must be in 1..{n}, got {length}")


# ---------------------------------------------------------------------------
# group algebra

def compose(f: Perm, g: Perm) -> Perm:
    """Right-to-left composition: the permutation x -> f(g(x))."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    return Perm(_compose_words(f.word, g.word))


def inverse(p: Perm) -> Perm:
    return Perm(_inverse_word(p.word))


# ---------------------------------------------------------------------------
# text formats

def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse one-line ("2,3,1", "2 3 1", or "231" for n <= 9) or cycle notation.

    Cycle notation looks like "(1 2 3)(4 5)" with fixed points omitted; it
    requires an explicit ``degree``.  "()" denotes the identity.
    """
    text = text.strip()
    if text.startswith("("):
        if degree is None:
            raise ValueError("cycle notation needs an explicit degree")
        return _parse_cycles(text, degree)
    if "," in text or " " in text:
        parts = [t for t in text.replace(",", " ").split() if t]
        values = [_parse_int(t) for t in parts]
    else:
        if not text:
            raise ValueError("empty permutation")
        if not text.isdigit():
            raise ValueError(f"malformed one-line word: {text!r}")
        values = [int(c) for c in text]
    p = Perm(values)
    if degree is not None and p.degree != degree:
        raise ValueError(f"word has degree {p.degree}, expected {degree}")
    return p


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"malformed token: {token!r}") from None


def _parse_cycles(text: str, degree: int) -> Perm:
    _check_degree(degree)
    word = list(range(1, degree + 1))
    seen: set[int] = set()
    body = text
    while body:
        if not body.startswith("("):
            raise ValueError(f"malformed cycle notation: {text!r}")
        close = body.find(")")
        if close < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        inner = body[1:close].replace(",", " ").split()
        body = body[close + 1:].strip()
        if not inner:
            continue
        pts = [_parse_int(t) for t in inner]
        for x in pts:
            if not 1 <= x <= degree:
                raise ValueError(f"cycle point {x} out of 1..{degree}")
            if x in seen:
                raise ValueError(f"repeated value {x}")
            seen.add(x)
        for i, x in enumerate(pts):
            word[x - 1] = pts[(i + 1) % len(pts)]
    return Perm(word)


def format_perm(p: Perm, notation: str = "one_line") -> str:
    """Render as a one-line word, or as a product of cycles."""
    if notation == "one_line":
        if p.degree <= 9:
            return "".join(str(v) for v in p.word)
        return ",".join(str(v) for v in p.word)
    if notation == "cycles":
        cycles = []
        seen: set[int] = set()
        for start in range(1, p.degree + 1):
            if start in seen or p.word[start - 1] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = p.word[start - 1]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = p.word[x - 1]
            cycles.append("(" + " ".join(str(v) for v in cyc) + ")")
        return "".join(cycles) if cycles else "()"
    raise ValueError(f"unknown notation: {notation!r}")


# ---------------------------------------------------------------------------
# patterns

def pattern(p: Perm, index_set: Iterable[int]) -> Perm:
    """The pattern of ``p`` at the given set of 1-based positions."""
    keep = set(index_set)
    idx = sorted(keep)
    if not idx:
        raise ValueError("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > p.degree:
        raise ValueError(f"index out of range 1..{p.degree}: {idx}")
    gone = bytes(sorted(v for i, v in enumerate(p.word, 1) if i not in keep))
    return Perm(p.word.translate(_deletion_table(gone), gone))


def delete_point(p: Perm, i: int) -> Perm:
    """The (n-1)-pattern obtained by deleting position ``i``."""
    if p.degree < 2:
        raise ValueError("cannot delete from a degree-1 permutation")
    if not 1 <= i <= p.degree:
        raise ValueError(f"position {i} out of range 1..{p.degree}")
    return Perm(_delete_word(p.word, i - 1))


def all_patterns(p: Perm, length: int) -> tuple[Perm, ...]:
    """All distinct patterns of the given length, canonically sorted."""
    n = p.degree
    if not 1 <= length <= n:
        raise ValueError(f"pattern length {length} out of range 1..{n}")
    return tuple(Perm(w) for w in sorted(_pattern_words((p.word,), length)))


def involves(tau: Perm, pi: Perm) -> bool:
    """True iff some subsequence of ``pi`` reduces to ``tau``."""
    return tau.word in _pattern_words((pi.word,), tau.degree)


# ---------------------------------------------------------------------------
# symmetries, parity, jumps

def reverse(p: Perm) -> Perm:
    """p composed with the reversal on positions: word read right to left."""
    return Perm(p.word[::-1])


def complement(p: Perm) -> Perm:
    """Reversal composed with p: each value v replaced by n + 1 - v."""
    n = p.degree
    return Perm(n + 1 - v for v in p.word)


def parity(p: Perm) -> str:
    """'even' or 'odd', the parity of the inversion count."""
    return "even" if _is_even_word(p.word) else "odd"


def jumps(p: Perm) -> tuple[tuple[int, int], ...]:
    """All value pairs (a, b) with a <= b - 2 taken at adjacent positions.

    A pair qualifies when {p(t), p(t+1)} = {a, b} for some position t; the
    result is sorted and duplicate-free.
    """
    w = p.word
    return tuple(sorted({(min(x, y), max(x, y)) for x, y in zip(w, w[1:]) if abs(x - y) >= 2}))


def adjacent_pattern_quotient(p: Perm, i: int) -> Perm:
    """delete_point(p, i+1) composed with the inverse of delete_point(p, i).

    For any permutation this quotient is a single cycle on a value interval
    bounded by p(i) and p(i+1); tests assert that shape exhaustively.
    """
    if not 1 <= i <= p.degree - 1:
        raise ValueError(f"position {i} out of range 1..{p.degree - 1}")
    left = _delete_word(p.word, i)      # delete position i+1 (0-based i)
    right = _delete_word(p.word, i - 1)  # delete position i
    return Perm(_compose_words(left, _inverse_word(right)))
