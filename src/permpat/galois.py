"""The pattern / compatibility operators between symmetric-group levels.

``pat_set`` collects all shorter patterns of a set; ``comp_set`` collects all
longer permutations whose patterns stay inside a set.  ``comp_set`` is the
brute-force oracle the closed-form classifier is verified against.

Levels are computed one degree at a time (the operators compose transitively
across intermediate degrees).  For a single step from degree k to k+1 the
candidates are ``lift(w, v) + (v,)`` for w in the level and v in 1..k+1,
where ``lift`` raises every value >= v by one; these are exactly the
permutations whose last-point deletion lies in the level.  A candidate is kept
iff its other k single-point deletions lie there too.  Those deletions are
not built per candidate: with ``c = w[i]`` and ``v' = v - 1 if c < v else v``,

    delete(lift(w, v) + (v,), i) == lift(delete(w, i), v') + (v',)

so one table, mapping each (k-1)-word u to the bitmask of last values v with
``lift(u, v) + (v,)`` in the level, answers deletion i for all k+1 values of v
at once.  Each input word costs k table lookups, and only the survivors are
built as tuples.  Peak work and memory are proportional to the level sizes,
never to (k+1)!.

Every deletion is one ``bytes.translate`` (``perms._deletion_tables``):
deleting the value c from w is ``bytes(w).translate(table_c, gone_c)``, which
drops c and lowers the values above it, and the table is keyed by those
bytes.  The survivors are built downward, v = k+1..1: ``lift(w, k+1)`` is w
itself, and each next lift raises the entry holding v.
"""
from __future__ import annotations

from typing import AbstractSet, Iterator

from .groups import DEFAULT_ELEMENT_CAP, PermSet
from .perms import MAX_DEGREE, CapExceeded, _deletion_tables, _pattern_words

Word = tuple[int, ...]


def pat_set(t: PermSet, length: int) -> PermSet:
    """Union of all length-``length`` patterns of the members of ``t``."""
    if not 1 <= length <= t.degree:
        raise ValueError(f"pattern length {length} out of range 1..{t.degree}")
    if length == t.degree:
        return t
    return PermSet(length, _pattern_words(t.word_set, length))


def _comp_step(
    words: AbstractSet[Word], k: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> set[Word]:
    """One level up: all (k+1)-words whose single-point deletions all lie in ``words``.

    ``ext[u]`` has bit v set iff ``lift(u, v) + (v,)`` is in ``words``, with
    u the bytes of the (k-1)-word.  For each w, deleting the value c from the
    candidates above w is one lookup of ``ext[bytes(w).translate(table_c,
    gone_c)]``, widened to the k+1 values of v by doubling bit c (see the
    module docstring); deleting the last point leaves w itself.  Every
    deletion c = k..1 is probed until the mask empties; the survivors are
    lifted downward from ``lift(w, k+1) == w``, one raised entry per v.

    Raises CapExceeded as soon as the level being built holds more than
    ``element_cap`` words.
    """
    tables, gones = _deletion_tables(k, k - 1)
    ext: dict[bytes, int] = {}
    if k:  # at degree 0 there is no deletion to look up
        for x in words:
            c = x[-1]
            u = bytes(x).translate(tables[c - 1], gones[c - 1])
            ext[u] = ext.get(u, 0) | 1 << c
    probes = [(c, tables[c - 1], gones[c - 1]) for c in range(k, 0, -1)]
    full = (1 << (k + 2)) - 2
    out: set[Word] = set()
    for w in words:
        b = bytes(w)
        mask = full
        for c, table, gone in probes:
            m = ext.get(b.translate(table, gone), 0)
            mask &= (m & ((2 << c) - 1)) | (m >> c << (c + 1))
            if not mask:
                break
        else:
            if mask >> (k + 1) & 1:
                out.add((*w, k + 1))
            lifted = list(w)
            for v in range(k, 0, -1):
                lifted[w.index(v)] = v + 1
                if mask >> v & 1:
                    out.add((*lifted, v))
            if len(out) > element_cap:
                raise CapExceeded(
                    f"level degree {k + 1} exceeded the element cap of {element_cap} "
                    f"({len(out)} words reached)"
                )
    return out


def iter_levels(
    s: PermSet, depth: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> Iterator[tuple[int, set[Word]]]:
    """Yield ``(degree, words)`` for the ``depth`` levels above ``s``, each
    built from the one before.

    Refuses before building anything when the top level would pass the
    permutation degree limit ``MAX_DEGREE``; a level holding more than
    ``element_cap`` words raises while it is built.
    """
    top = s.degree + depth
    if depth > 0 and top > MAX_DEGREE:
        raise CapExceeded(f"degree {top} exceeds the enumeration cap of {MAX_DEGREE}")
    words: AbstractSet[Word] = s.word_set
    for k in range(s.degree, top):
        words = _comp_step(words, k, element_cap)
        yield k + 1, words


def comp_set(s: PermSet, m: int, *, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermSet:
    """All degree-``m`` permutations whose patterns at degree(s) lie in ``s``."""
    if m <= s.degree:
        raise ValueError(f"target degree {m} must exceed {s.degree}")
    for _, words in iter_levels(s, m - s.degree, element_cap=element_cap):
        pass
    return PermSet(m, words)
