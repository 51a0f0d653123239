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
at once.  Peak work and memory are proportional to the level sizes, never to
(k+1)!.

Every deletion is one ``bytes.translate`` (``perms._deletion_tables``):
deleting the value c from w is ``bytes(w).translate(table_c, gone_c)``, which
drops c and lowers the values above it, and the table is keyed by those
bytes.  The step probes one deleted value c at a time for all live words at
once: one table widened for c, then a ``map`` of translate, lookup and mask
``and`` over the words, then the words whose mask emptied are dropped.  When
the probes end, the masks give the level's size, so the element cap is
checked before any word is built.  Only the survivors are built, each by one
``itemgetter`` over lift rows kept per degree, into one frozenset that
``PermSet`` and ``PermGroup.from_words`` keep without copying.
"""
from __future__ import annotations

import functools
from itertools import chain, compress, repeat
from operator import and_, itemgetter
from typing import AbstractSet, Iterator

from .groups import DEFAULT_ELEMENT_CAP, PermSet
from .perms import MAX_DEGREE, CapExceeded, _deletion_tables, _pattern_words

Word = tuple[int, ...]


def pat_set(t: PermSet, length: int) -> PermSet:
    """Union of all length-``length`` patterns of the members of ``t``."""
    if not 1 <= length <= t.degree:
        raise ValueError(f"pattern length {length} out of range 1..{t.degree}")
    return PermSet(length, _pattern_words(t.word_set, length))


@functools.lru_cache(maxsize=None)
def _lift_rows(k: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """One row for each v in 1..k+1 whose bit is set in ``mask``: it maps each
    value x in 1..k to its lift ``x + (x >= v)`` and k + 1 to v, so
    ``itemgetter(*w, k + 1)(row) == lift(w, v) + (v,)``.  Built on first use
    and kept."""
    return tuple(
        (0, *(x + (x >= v) for x in range(1, k + 1)), v)
        for v in range(1, k + 2)
        if mask >> v & 1
    )


def _comp_step(
    words: AbstractSet[Word], k: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> frozenset[Word]:
    """One level up: all (k+1)-words whose single-point deletions all lie in ``words``.

    ``ext[u]`` has bit v set iff ``lift(u, v) + (v,)`` is in ``words``, with
    u the bytes of the (k-1)-word.  Deleting the value c from the candidates
    above w looks up ``bytes(w).translate(table_c, gone_c)`` in ``ext``
    widened at c: bits up to c stay and bits from c up move one higher, so
    bit c lands on both c and c + 1 (see the module docstring); deleting the
    last point leaves w itself.  The deletions are probed one column
    c = k..1 at a time, for every live word at once, and the words whose mask
    empties are dropped after each column.

    The masks then count the level, so CapExceeded is raised before any
    word is built when it holds more than ``element_cap`` words.  Each
    surviving w is lifted by one ``itemgetter(*w, k + 1)`` over the
    ``_lift_rows`` of its mask, all into one frozenset.
    """
    if not words:
        return frozenset()
    if not k:  # the empty word's one lift
        return frozenset({(1,)})
    tables, gones = _deletion_tables(k, k - 1)
    live = list(map(bytes, words))
    ext: dict[bytes, int] = {}
    for b in live:
        c = b[-1]
        u = b.translate(tables[c - 1], gones[c - 1])
        ext[u] = ext.get(u, 0) | 1 << c
    masks = [(1 << (k + 2)) - 2] * len(live)
    for c in range(k, 0, -1):
        low, high = (2 << c) - 1, c + 1
        ext_c = {u: (m & low) | (m >> c << high) for u, m in ext.items()}
        keys = map(bytes.translate, live, repeat(tables[c - 1]), repeat(gones[c - 1]))
        masks = list(map(and_, masks, map(ext_c.get, keys, repeat(0))))
        if not all(masks):
            live = list(compress(live, masks))
            masks = list(filter(None, masks))
            if not live:
                return frozenset()
    del ext, ext_c, keys  # not held at the survivor build's peak
    size = sum(map(int.bit_count, masks))
    if size > element_cap:
        raise CapExceeded(
            f"level degree {k + 1} exceeded the element cap of {element_cap} "
            f"({size} words)"
        )
    rows = {m: _lift_rows(k, m) for m in set(masks)}
    return frozenset(
        chain.from_iterable(map(itemgetter(*b, k + 1), rows[m]) for b, m in zip(live, masks))
    )


def iter_levels(
    s: PermSet, depth: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> Iterator[tuple[int, frozenset[Word]]]:
    """Yield ``(degree, words)`` for the ``depth`` levels above ``s``, each
    built from the one before.

    Refuses before building anything when the top level would pass the
    permutation degree limit ``MAX_DEGREE``, naming the first degree past
    it; a level holding more than ``element_cap`` words raises before its
    words are built.
    """
    top = s.degree + depth
    if depth > 0 and top > MAX_DEGREE:
        raise CapExceeded(f"level degree {MAX_DEGREE + 1} exceeds the cap {MAX_DEGREE}")
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
