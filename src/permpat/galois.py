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

Every word is ``bytes``, and every deletion is one ``bytes.translate``
(``perms._deletion_tables``): deleting the value c from w is
``w.translate(table_c, gone_c)``, which drops c and lowers the values above
it, and the table is keyed by the result.  The probe takes one of two shapes,
picked by the number of live words.  Below ``_PER_WORD_BELOW`` (24) words it
probes word by word: one ``map`` of translate gives a word's k deletions, each
is looked up and widened inline, and the word stops at its first empty mask.
From 24 words on it probes one deleted value c at a time for all live words
at once: one table widened for c, then a ``map`` of translate, lookup and mask
``and`` over the words, then the words whose mask emptied are dropped.  Both
make the same lookups in the same table; the column probe's fixed cost per
deleted value only pays off on larger levels.  When the probes end, the masks
give the level's size, so the element cap is checked before any word is
built.  Only the survivors are built, the one for v as
``(w + bytes((k + 1,))).translate(lift_v)`` with one lift table per v kept
per degree, into one frozenset that ``PermSet`` and ``PermGroup.from_words``
keep without copying.  The cyclic garbage collector does not track ``bytes``,
so the build starts no collection.
"""
from __future__ import annotations

import functools
from itertools import chain, compress, repeat
from operator import and_
from typing import AbstractSet, Iterator

from .groups import DEFAULT_ELEMENT_CAP, PermSet
from .perms import (
    Word, _cap_exceeded, _check_in_range, _check_level_degree, _deletion_tables, _pattern_words
)


def pat_set(t: PermSet, length: int) -> PermSet:
    """Union of all length-``length`` patterns of the members of ``t``."""
    _check_in_range("pattern length", length, t.degree)
    return PermSet(length, _pattern_words(t.word_set, length))


_PER_WORD_BELOW = 24  # live words below which _comp_step probes word by word


@functools.lru_cache(maxsize=None)
def _lift_tables(k: int) -> tuple[bytes, ...]:
    """One translate table for each v in 1..k+1, in order: it maps each value
    x in 1..k to its lift ``x + (x >= v)`` and k + 1 to v, so
    ``(w + bytes((k + 1,))).translate(table) == lift(w, v) + (v,)``.  Built
    on first use and kept."""
    return tuple(
        bytes((0, *(x + (x >= v) for x in range(1, k + 1)), v, *range(k + 2, 256)))
        for v in range(1, k + 2)
    )


def _comp_step(
    words: AbstractSet[Word], k: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> frozenset[Word]:
    """One level up: all (k+1)-words whose single-point deletions all lie in
    ``words``, k-words with k >= 1, as ``iter_levels`` asks.

    ``ext[u]`` has bit v set iff ``lift(u, v) + (v,)`` is in ``words``, with
    u a (k-1)-word.  Deleting the value c from the candidates above w looks
    up ``w.translate(table_c, gone_c)`` in ``ext`` widened at c: bits up to
    c stay and bits from c up move one higher, so bit c lands on both c and
    c + 1 (see the module docstring); deleting the last point leaves w
    itself.  Fewer than ``_PER_WORD_BELOW`` live words are probed one word
    at a time, c = 1..k, each stopping at its first empty mask; more are
    probed one column c = k..1 at a time, for every live word at once, and
    the words whose mask empties are dropped after each column.  The switch
    sits at the measured crossover: replaying the steps of one ``verify
    --catalog 5 --depth 3`` and ``--catalog 4 --depth 4`` pass (2-core Xeon,
    Python 3.11, medians of interleaved runs), probing word by word took
    0.74-0.92 of the column probe's time below 24 words, 0.98-1.08 from 24
    to 39 and 1.26-1.38 from 60 words up to 5040.

    The masks then count the level, so CapExceeded is raised before any
    word is built when it holds more than ``element_cap`` words.  Each
    surviving w, with k + 1 appended, is translated by the ``_lift_tables``
    of its mask, all into one frozenset.
    """
    if not words:
        return frozenset()
    tables, gones = _deletion_tables(k, k - 1)
    live = list(words)
    ext: dict[bytes, int] = {}
    for b in live:
        c = b[-1]
        u = b.translate(tables[c - 1], gones[c - 1])
        ext[u] = ext.get(u, 0) | 1 << c
    full = (1 << (k + 2)) - 2
    if len(live) < _PER_WORD_BELOW:
        masks = []  # 0 for a word that lost every candidate: it lifts none
        for b in live:
            m = full
            for c, u in enumerate(map(b.translate, tables, gones), 1):
                e = ext.get(u, 0)
                m &= (e & ((2 << c) - 1)) | (e >> c << (c + 1))
                if not m:
                    break
            masks.append(m)
        if not any(masks):
            return frozenset()
    else:
        masks = [full] * len(live)
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
        del ext_c, keys  # not held at the survivor build's peak
    del ext
    size = sum(map(int.bit_count, masks))
    if size > element_cap:
        raise _cap_exceeded(f"level of degree {k + 1}", size, element_cap)
    lifts = _lift_tables(k)
    rows = {m: tuple(t for v, t in enumerate(lifts, 1) if m >> v & 1) for m in set(masks)}
    top = bytes((k + 1,))
    return frozenset(
        chain.from_iterable(map((b + top).translate, rows[m]) for b, m in zip(live, masks))
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
    _check_level_degree(top)
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
