"""Finite permutation groups as fully enumerated element sets.

No stabilizer chains: every group constructed here is small enough that the
explicit element set is the cheapest representation, and exact set
comparison is the dominant query.  A set or group holds its ``bytes`` words
in one frozenset; order is imposed only where it is part of the output or of
a deterministic choice.  Every product is one ``bytes.translate`` by the
package's one product table, ``perms._times``: ``r.translate(_times(s))`` is
the word of s·r, so closures multiply on the left and grow one generator at
a time by left cosets r H (Dimino's algorithm), guarded by an element cap;
exceeding the cap is a hard error, never silent truncation.  Every closure
starts from the identity ``perms.ascending(n)``, which refuses a degree
outside 1..MAX_DEGREE as ``PermSet`` does (``perms._check_degree``), and
refuses each word it extends by that is not a permutation, by the check
``Perm`` runs (``perms._check_permutation``).  Every member of a set or
group is checked by one function, ``_check_word``.  Every named
group but the symmetric group is the closure of the generators it states,
and a group built from written-out words is checked by
``PermGroup.from_words``.  That check takes
the words in sorted order without sorting them all: it sorts the words below
the first word that leaves the leading fixed points, and heaps the rest only
if the walk reaches them.  It never builds the extension that would equal the
set: when the set is m times the closure so far, with m at most the degree, a
walk over coset representatives that stores no elements shows that the next
word adds exactly m cosets, and each coset is then looked up in the set.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Collection, Iterable, Iterator, Sequence

from .partitions import Partition, congruence, end_blocks, parse_partition, refines
from .perms import (
    CapExceeded,
    Perm,
    Word,
    _cap_exceeded,
    _check_degree,
    _check_permutation,
    _check_same_degree,
    _inverse_word,
    _is_even_word,
    _times,
    ascending,
    descending,
    format_perm,
    natural_cycle,
    parse_perm,
)

DEFAULT_ELEMENT_CAP = 500_000


def _coset(r: Word, base: Iterable[Word]) -> Iterator[Word]:
    """The left coset r H of the words ``base`` of H, lazily."""
    return map(bytes.translate, base, itertools.repeat(_times(r)))


def _extend(elems: set[Word], gens: list[Word], g: Word, element_cap: int) -> None:
    """Grow the group ``elems`` generated by ``gens`` to <gens, g>, in place.

    Dimino's coset closure (Butler, LNCS 559, 1991): with H the group before
    the call, the new group is a union of left cosets r H.  A coset is added
    whole the first time a product of a generator and a representative lands
    outside the elements so far, so every element is produced once.  Requires
    ``g`` not in ``elems`` and every word a permutation; appends ``g`` to
    ``gens``.
    """
    gens.append(g)
    base = list(elems)
    reps: list[Word] = []
    tables = list(map(_times, gens))

    def add_coset(r: Word, times: bytes) -> None:
        reps.append(r)
        elems.update(map(bytes.translate, base, itertools.repeat(times)))
        if len(elems) > element_cap:
            raise _cap_exceeded(f"closure of degree {len(r)}", len(elems), element_cap)

    add_coset(g, tables[-1])
    for r in reps:  # grows while it is scanned
        for prod in map(r.translate, tables):
            if prod not in elems:
                add_coset(prod, _times(prod))


def _closes_to(wset: frozenset[Word], elems: set[Word], gens: list[Word], g: Word, m: int) -> bool:
    """Whether <gens, g> is the set ``wset`` of m |elems| words, where
    ``elems`` is the group H = <gens>, without building <gens, g>.

    Dimino's coset walk of ``_extend`` with only the representatives kept: a
    product p lies in the coset r H when r^-1 p is in H.  The walk gives up
    past m cosets; with exactly m, the cosets (H itself included) are m
    disjoint sets of |H| words, so they are ``wset`` when each lies inside it.
    """
    reps = [g]
    over = [_times(_inverse_word(g))]  # p -> g^-1·p
    tables = list(map(_times, gens + [g]))
    for r in reps:  # grows while it is scanned
        for prod in map(r.translate, tables):
            if prod in elems or not elems.isdisjoint(map(prod.translate, over)):
                continue
            if len(reps) + 1 == m:
                return False
            reps.append(prod)
            over.append(_times(_inverse_word(prod)))
    return (
        len(reps) + 1 == m
        and wset.issuperset(elems)
        and all(wset.issuperset(_coset(r, elems)) for r in reps)
    )


def _generate(gens: Iterable[Word], n: int, element_cap: int) -> tuple[set[Word], list[Word]]:
    """The elements of <gens>, one generator at a time, and the generators
    kept; a generator already in the group so far is skipped.  Each one
    extended by must be a permutation of 1..n (``_check_permutation``, given
    words of length n): a word that repeats a value would close to a monoid,
    or never close."""
    elems = {ascending(n).word}
    kept: list[Word] = []
    for g in gens:
        if g not in elems:
            _check_permutation(g)
            _extend(elems, kept, g, element_cap)
    return elems, kept


def _check_word(w: object, degree: int) -> None:
    """Refuse a member that is not ``bytes``, which held beside ``bytes``
    words would miss every lookup, or that is not of length ``degree``: the
    one member check of sets and groups."""
    if not isinstance(w, bytes):
        raise ValueError(f"member {w!r} is not a bytes word")
    if len(w) != degree:
        raise ValueError(f"member degree {len(w)} != {degree}")


def _check_words(words: Iterable[object], degree: int) -> None:
    """``_check_word`` on every member, in the order of their reprs: of two
    bad members the same one is named whatever the set's iteration order,
    which for ``bytes`` follows the hash seed.  Called on refused input only."""
    for w in sorted(words, key=repr):
        _check_word(w, degree)


def _sorted_walk(words: Collection[Word], degree: int) -> Iterator[Word]:
    """Yield ``sorted(words)`` lazily, holding no list of all the words.

    One pass keeps the words below ``bytes((1, .., depth, depth + 2))`` and the
    least word at or above it, ``top``; the kept words and ``top`` are the
    sorted order's head.  When no word reaches the bound, as on a level
    whose group fixes 1..depth, the pass repeats one position deeper over
    all the words, keeping no copy.  Only if more words are asked for are
    those past ``top`` heaped and popped.  A group's greedy generators
    mostly lie in that head: on S_9, the 40320 words fixing 1, then 213456789.
    The first pass compares every word with a ``bytes`` bound, so of two or
    more words one that is not ``bytes`` is refused, by ``_check_words``,
    before anything is yielded.
    """
    if len(words) > 1:
        for depth in range(degree):
            bound = bytes((*range(1, depth + 1), depth + 2))
            low: list[Word] = []
            top = None
            try:
                for w in words:
                    if w < bound:
                        low.append(w)
                    elif top is None or w < top:
                        top = w
            except TypeError:  # a word that is not bytes meets the bound
                _check_words(words, degree)
                raise
            if top is not None:
                low.sort()
                yield from low
                yield top
                rest = list(filter(top.__lt__, words))
                heapq.heapify(rest)
                while rest:
                    yield heapq.heappop(rest)
                return
    yield from sorted(words)


def _orbit_partition(n: int, gens: Sequence[Word]) -> Partition:
    """The orbits of <gens> on {1..n}: the finest partition joining x and g(x)."""
    return congruence(n, [(x, g[x - 1]) for g in gens for x in range(1, n + 1)], ())


class PermSet:
    """A set of same-degree permutations, held as one frozenset of words.

    The set has no stored order: iteration sorts on the way out, so callers
    that print or choose deterministically see sorted words.  A frozenset
    passed in is kept as it is, not copied (``frozenset(fs) is fs``).  A
    member that is not ``bytes``, or of another degree, is refused; of two
    such members, the one with the lesser repr is named.  Like a
    ``Perm``, a set is immutable, so a memo may hand one to every caller.
    """

    __slots__ = ("degree", "word_set")

    def __init__(self, degree: int, words: Iterable[Word]):
        _check_degree(degree)
        word_set = frozenset(words)
        try:
            same_degree = set(map(bytes.__len__, word_set)) <= {degree}
        except TypeError:  # a member that is not bytes
            same_degree = False
        if not same_degree:
            _check_words(word_set, degree)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "word_set", word_set)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self) -> Iterator[Perm]:
        return (Perm(w) for w in sorted(self.word_set))

    def __len__(self) -> int:
        return len(self.word_set)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermSet)
            and self.degree == other.degree
            and self.word_set == other.word_set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.word_set))

    def __repr__(self) -> str:
        return f"<PermSet degree={self.degree} size={len(self.word_set)}>"


class PermGroup(PermSet):
    """A permutation set closed under composition, with a generator list."""

    __slots__ = ("generator_words", "_orbits")

    def __init__(self, degree: int, generator_words: Sequence[Word], words: Iterable[Word]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "word_set", frozenset(words))
        object.__setattr__(self, "generator_words", tuple(generator_words))
        object.__setattr__(self, "_orbits", None)  # built on the first ``orbits``

    # -- construction ------------------------------------------------------

    @classmethod
    def closure(
        cls,
        generators: Sequence[Word],
        degree: int,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ) -> "PermGroup":
        for g in generators:
            _check_word(g, degree)
        return cls(degree, generators, _generate(generators, degree, element_cap)[0])

    @classmethod
    def from_words(
        cls,
        words: Iterable[Word],
        degree: int,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ) -> "PermGroup":
        """Wrap an element set, verifying it really is a group.

        Generators are recovered greedily, in sorted order, each one
        extending the group of those before it; the closure of the recovered
        generators must reproduce the set exactly.  The sorted order is
        produced lazily by ``_sorted_walk``, which sorts only the head of the
        order and heaps the rest on demand, and the walk stops at the first
        extension whose closure equals the set, since no later word could
        extend it; a set that is not a group walks every word.  The degree
        must be in 1..MAX_DEGREE, as for ``closure``.  Every word must be
        ``bytes``: ``_sorted_walk`` refuses one that is not.  Each word the
        walk extends by is checked by ``_check_word`` and must be a
        permutation of 1..degree, so a member of another degree or a word
        that repeats a value, never in the closure of permutations, is
        refused when reached; the set must equal that closure, so no other
        word is checked.

        The extension that would equal the set is never built.  Before
        extending the closure H by the next word g, with m = |W| / |H| a
        whole number, 1 < m <= degree, m (k + 1) < |H| for the k generators so
        far and |W| within the cap, ``_closes_to`` walks the cosets of H in
        <H, g> without storing them; exactly m cosets, each inside W, make
        <H, g> = W, and g is the last generator.  Otherwise ``_extend`` runs
        as before, so the generators, errors and caps are those of the full
        walk.  The bound m <= degree misses no closing extension: let j be
        the number of leading points g fixes.  Every word before g fixes
        1..j, and every word of W fixing 1..j+1 comes before g, so if W is a
        group then W_{j+1} <= H and <H, g> <= W_j (W_i the pointwise
        stabilizer of 1..i), and an extension <H, g> = W has index at most
        [W_j : W_{j+1}], the orbit of j+1 under W_j, at most n - j.  The
        bound m (k + 1) < |H| keeps the walk off small groups, where
        building one coset costs less than walking them.
        """
        closed = {ascending(degree).word}
        wset = frozenset(words)
        size = len(wset)
        gens: list[Word] = []
        for g in _sorted_walk(wset, degree):
            if g not in closed:
                _check_word(g, degree)
                _check_permutation(g)
                m, rest = divmod(size, len(closed))
                if (
                    not rest
                    and 1 < m <= degree
                    and m * (len(gens) + 1) < len(closed)
                    and size <= element_cap
                    and _closes_to(wset, closed, gens, g, m)
                ):
                    gens.append(g)
                    break
                _extend(closed, gens, g, element_cap)
                if len(closed) == size and closed == wset:
                    break
        else:
            if closed != wset:
                raise ValueError(
                    f"element set of size {size} is not closed "
                    f"(closure has {len(closed)} elements)"
                )
        return cls(degree, gens, wset)

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.word_set)

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        _check_same_degree(self.degree, other.degree)
        return self.word_set <= other.word_set

    # -- structure -----------------------------------------------------------

    def orbits(self) -> Partition:
        """The partition of {1..n} into orbits, computed once per group."""
        if self._orbits is None:
            object.__setattr__(self, "_orbits", _orbit_partition(self.degree, self.generator_words))
        return self._orbits

    def is_transitive(self) -> bool:
        return len(self.orbits().blocks) == 1

    def block_systems(self) -> list[Partition]:
        """All minimal nontrivial invariant partitions of a transitive group."""
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups only")
        n = self.degree
        candidates = set()
        for j in range(2, n + 1):
            # the minimal G-invariant partition identifying 1 and j
            part = congruence(n, [(1, j)], self.generator_words)
            if 1 < len(part.blocks) < n:
                candidates.add(part)
        minimal = [
            p
            for p in candidates
            if not any(q != p and refines(q, p) for q in candidates)
        ]
        return sorted(minimal, key=lambda p: p.blocks)

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial invariant partition; refused, by
        ``block_systems``, for an intransitive group."""
        return not self.block_systems()

    def largest_ab(self) -> tuple[int, int]:
        """Maximal a, b such that the prefix/suffix block group lies inside.

        Grown one adjacent transposition at a time: [1,a] needs (i i+1) for
        every i < a, and symmetrically for the suffix.
        """
        n = self.degree
        a = 1
        while a < n and self._has_adjacent_transposition(a):
            a += 1
        b = 1
        while b < n and self._has_adjacent_transposition(n - b):
            b += 1
        return a, b

    def _has_adjacent_transposition(self, i: int) -> bool:
        return _transposition_word(self.degree, i, i + 1) in self.word_set


# ---------------------------------------------------------------------------
# named constructions

def trivial_group(n: int) -> PermGroup:
    return PermGroup.closure((), n)


def _check_symmetric_order(n: int, element_cap: int) -> None:
    """Refuse S_n when its order n! passes the element cap."""
    if math.factorial(n) > element_cap:
        raise _cap_exceeded(f"S_{n}", math.factorial(n), element_cap)


def symmetric_group(n: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    _check_degree(n)
    _check_symmetric_order(n, element_cap)
    words = map(bytes, itertools.permutations(range(1, n + 1)))
    gens: tuple[Word, ...]
    if n == 1:
        gens = ()
    elif n == 2:
        gens = (b"\2\1",)
    else:
        gens = (bytes((2, 1, *range(3, n + 1))), natural_cycle(n).word)
    return PermGroup(n, gens, words)


def alternating_group(n: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    _check_degree(n)
    order = math.factorial(n) // 2 or 1  # A_1 = S_1
    if order > element_cap:
        raise _cap_exceeded(f"A_{n}", order, element_cap)
    if n <= 2:
        gens: tuple[Word, ...] = ()
    else:
        three = bytes((2, 3, 1, *range(4, n + 1)))
        if n == 3:
            gens = (three,)
        elif n % 2 == 1:
            gens = (three, natural_cycle(n).word)
        else:
            gens = (three, bytes((1, *range(3, n + 1), 2)))
    return PermGroup.closure(gens, n, element_cap)


def descending_group(n: int) -> PermGroup:
    return PermGroup.closure([descending(n).word], n)


def natural_cyclic_group(n: int) -> PermGroup:
    return PermGroup.closure([natural_cycle(n).word], n)


@functools.lru_cache(maxsize=None)
def natural_dihedral_group(n: int) -> PermGroup:
    """D_n, generated by the natural cycle and the reversal; built once per
    degree and kept (at most 32 words), since ``dihedral_interval_group`` and
    the classifier ask for the same few again and again."""
    z, d = natural_cycle(n).word, descending(n).word
    return PermGroup.closure([z, d], n)


def dihedral_interval_group(n: int, a: int, b: int) -> PermGroup:
    """All permutations acting as the natural dihedral group on [a,b] and
    fixing everything else pointwise."""
    _check_degree(n)  # before ``bytes(range(...))`` is asked for n bytes
    if not 1 <= a < b <= n:
        raise ValueError(f"need 1 <= a < b <= n, got a={a}, b={b}, n={n}")
    k = b - a + 1
    inner = natural_dihedral_group(k)
    head, tail = bytes(range(1, a)), bytes(range(b + 1, n + 1))
    words = [head + bytes(v + a - 1 for v in w) + tail for w in inner.word_set]
    return PermGroup.from_words(words, n)


def _young_order(p: Partition) -> int:
    """The order of the Young subgroup of ``p``, without building it."""
    return math.prod(math.factorial(len(b)) for b in p.blocks)


def _young_generators(p: Partition, element_cap: int) -> tuple[Word, ...]:
    """The adjacent transpositions inside each block of ``p``, which generate
    its Young subgroup; refused when that subgroup passes the cap."""
    _check_degree(p.size)
    order = _young_order(p)
    if order > element_cap:
        raise _cap_exceeded(f"Young subgroup of {p}", order, element_cap)
    return tuple(
        _transposition_word(p.size, b[i], b[i + 1])
        for b in p.blocks
        for i in range(len(b) - 1)
    )


def young_subgroup(p: Partition, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """All permutations mapping every block of ``p`` onto itself."""
    return PermGroup.closure(_young_generators(p, element_cap), p.size, element_cap)


def young_with_reversal(p: Partition, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """The group generated by the Young subgroup of ``p`` and the reversal."""
    gens = _young_generators(p, element_cap) + (descending(p.size).word,)
    return PermGroup.closure(gens, p.size, element_cap)


def sab_group(n: int, a: int, b: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Permutations preserving [1,a] and the length-b suffix, fixing the middle."""
    _check_degree(n)  # before ``end_blocks`` builds n blocks
    return young_subgroup(end_blocks(n, a, b), element_cap)


def partition_automorphisms(p: Partition, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """All permutations mapping blocks of ``p`` onto blocks of ``p``."""
    _check_degree(p.size)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for b in p.blocks:
        by_size.setdefault(len(b), []).append(b)
    order = math.prod(
        math.factorial(len(cls)) * math.factorial(s) ** len(cls)
        for s, cls in by_size.items()
    )
    if order > element_cap:
        raise _cap_exceeded(f"automorphism group of {p}", order, element_cap)
    n = p.size
    words = []
    size_classes = sorted(by_size.items())
    class_targets = [
        list(itertools.permutations(cls)) for _, cls in size_classes
    ]
    for assignment in itertools.product(*class_targets):
        # assignment fixes, per size class, which block goes where
        sources = [b for _, cls in size_classes for b in cls]
        targets = [b for cls_t in assignment for b in cls_t]
        image_choices = [itertools.permutations(t) for t in targets]
        for images in itertools.product(*image_choices):
            w = [0] * n
            for src, img in zip(sources, images):
                for x, y in zip(src, img):
                    w[x - 1] = y
            words.append(bytes(w))
    return PermGroup.from_words(words, n, element_cap)


def _transposition_word(n: int, x: int, y: int) -> Word:
    w = list(range(1, n + 1))
    w[x - 1], w[y - 1] = y, x
    return bytes(w)


# ---------------------------------------------------------------------------
# descriptor grammar

def parse_group(text: str, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Build a group from its textual descriptor.

    Grammar: ``S:5`` ``A:5`` ``T:5`` ``Desc:5`` ``C:5`` ``D:5`` ``Dint:5:1:4``
    ``Sab:7:2:3`` ``SPi:1,2|3|4,5`` ``SPiDesc:1,2|3|4,5`` ``AutPi:1,3,5|2,4,6``
    ``gens:6:(1 2 3 4);(3 4 5 6)``.
    """
    head, _, rest = text.strip().partition(":")
    if not rest:
        raise ValueError(f"malformed group descriptor: {text!r}")
    try:
        if head == "S":
            return symmetric_group(int(rest), element_cap)
        if head == "A":
            return alternating_group(int(rest), element_cap)
        if head == "T":
            return trivial_group(int(rest))
        if head == "Desc":
            return descending_group(int(rest))
        if head == "C":
            return natural_cyclic_group(int(rest))
        if head == "D":
            return natural_dihedral_group(int(rest))
        if head == "Dint":
            n, a, b = (int(t) for t in rest.split(":"))
            return dihedral_interval_group(n, a, b)
        if head == "Sab":
            n, a, b = (int(t) for t in rest.split(":"))
            return sab_group(n, a, b, element_cap)
        if head == "SPi":
            return young_subgroup(parse_partition(rest), element_cap)
        if head == "SPiDesc":
            return young_with_reversal(parse_partition(rest), element_cap)
        if head == "AutPi":
            return partition_automorphisms(parse_partition(rest), element_cap)
        if head == "gens":
            deg_text, _, gtext = rest.partition(":")
            n = int(deg_text)
            gens = [parse_perm(t, n).word for t in gtext.split(";") if t.strip()]
            return PermGroup.closure(gens, n, element_cap)
    except ValueError as exc:
        raise ValueError(f"bad group descriptor {text!r}: {exc}") from None
    raise ValueError(f"unknown group descriptor kind: {head!r}")


def describe_group(g: PermGroup) -> str:
    """A descriptor string that parses back to the same group."""
    gens = ";".join(format_perm(Perm(w), "cycles") for w in g.generator_words)
    return f"gens:{g.degree}:{gens}"


# ---------------------------------------------------------------------------
# exhaustive subgroup enumeration

MAX_SUBGROUP_DEGREE = 6

#: Largest order of a proper subgroup other than the alternating group; any
#: closure that grows past this is the alternating or the full symmetric
#: group (for degree <= 6 no other subgroup of larger order exists, since the
#: symmetric group has no subgroup of index between 2 and its degree).
_LARGEST_SPORADIC_ORDER = {1: 1, 2: 2, 3: 3, 4: 8, 5: 24, 6: 120}


def _prime_power_order_words(n: int) -> list[Word]:
    """Canonical prime-power-order extension candidates.

    One representative per cyclic subgroup: the lexicographically least of
    its generators.  Extending by a representative reaches the same closures
    as extending by any generator of the same cyclic group.
    """
    out = []
    seen_cyclic: set[frozenset[Word]] = set()
    for w in map(bytes, itertools.permutations(range(1, n + 1))):
        cyc = frozenset(_generate([w], n, math.factorial(n))[0])
        if not _is_prime_power(len(cyc)):  # the order of w; 1 is no prime power
            continue
        if cyc not in seen_cyclic:
            seen_cyclic.add(cyc)
            out.append(w)
    return out


def _is_prime_power(k: int) -> bool:
    for p in (2, 3, 5, 7, 11, 13):
        if k % p == 0:
            while k % p == 0:
                k //= p
            return k == 1
    return False


def enumerate_subgroups(n: int) -> list[PermGroup]:
    """Every subgroup of the degree-n symmetric group, degree capped at 6.

    The enumeration runs once per degree and process: later calls return
    new ``PermGroup`` objects over the same generator tuples and frozensets,
    so what one caller caches on a group (its orbits) no other caller sees.
    """
    _check_subgroup_degree(n)
    return [PermGroup(n, gens, elems) for gens, elems in _subgroup_catalog(n)]


def _check_subgroup_degree(n: int) -> None:
    if not 1 <= n <= MAX_SUBGROUP_DEGREE:
        raise ValueError(f"subgroup enumeration is capped at degree {MAX_SUBGROUP_DEGREE}")


@functools.lru_cache(maxsize=None)
def _subgroup_catalog(n: int) -> tuple[tuple[tuple[Word, ...], frozenset[Word]], ...]:
    """The subgroups of S_n as (generators, elements) pairs, in the order
    ``enumerate_subgroups`` returns them; built on first use and kept.

    Seeds with the cyclic subgroups generated by prime-power-order elements
    and repeatedly extends by one such element, closing and deduplicating by
    exact element set.  Every subgroup is generated by its prime-power-order
    elements, so the fixpoint is complete.  A group H is closed with only the
    first extender g of each double coset HgH, in extender order: for a, b in
    H, <H, g> = <H, agb> (the double-coset pruning of subgroup-lattice
    computation; Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005), so a later extender in HgH could only find a group already
    seen.  Deterministic output order: ascending by (order, element list).
    """
    full = symmetric_group(n).word_set
    even_half = alternating_group(n).word_set
    cutoff = _LARGEST_SPORADIC_ORDER[n]
    extenders = _prime_power_order_words(n)
    seen: dict[frozenset[Word], tuple[Word, ...]] = {}
    queue: list[tuple[frozenset[Word], tuple[Word, ...]]] = []

    def grow(elems: frozenset[Word], gens: tuple[Word, ...], g: Word) -> frozenset[Word]:
        # <gens, g> from elems = <gens>; past the cutoff it is A_n or S_n
        grown = set(elems)
        try:
            _extend(grown, list(gens), g, cutoff)
        except CapExceeded:
            return even_half if all(_is_even_word(w) for w in gens + (g,)) else full
        return frozenset(grown)

    def push(elems: frozenset[Word], gens: tuple[Word, ...]) -> None:
        if elems not in seen:
            seen[elems] = gens
            queue.append((elems, gens))

    trivial = frozenset({ascending(n).word})
    push(trivial, ())
    for g in extenders:
        push(grow(trivial, (), g), (g,))
    while queue:
        elems, gens = queue.pop()
        if len(elems) == len(full) or elems == even_half:
            continue  # nothing above the top groups
        base = list(elems)
        tables = list(map(_times, base))
        covered = set(elems)
        for g in extenders:
            if g not in covered:
                # cover the double coset HgH: every a·g·b with a, b in H
                for gb in _coset(g, base):
                    covered.update(map(gb.translate, tables))
                push(grow(elems, gens, g), gens + (g,))
    # kept for the process: each element set refers to the words of S_n, so
    # a word in many subgroups is held once.  The set is no idle copy: a
    # frozenset built from a set sizes its table from the count, one built
    # from the map grows it as it goes, twice as large for 24 or 120 words
    word = {w: w for w in full}.__getitem__
    catalog = [(gens, frozenset(set(map(word, elems)))) for elems, gens in seen.items()]
    catalog.sort(key=lambda c: (len(c[1]), sorted(c[1])))
    return tuple(catalog)
