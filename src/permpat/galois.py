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
"""
from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from .groups import DEFAULT_ELEMENT_CAP, PermGroup, PermSet
from .perms import MAX_DEGREE, CapExceeded, _delete_word

Word = tuple[int, ...]


def _pat_words(words: Iterable[Word], length: int) -> set[Word]:
    import itertools

    from .perms import _reduce_word

    out: set[Word] = set()
    for w in words:
        n = len(w)
        if length == n - 1:
            for i in range(n):
                out.add(_delete_word(w, i))
        else:
            for combo in itertools.combinations(range(n), length):
                out.add(_reduce_word([w[i] for i in combo]))
    return out


def pat_set(t: PermSet, length: int) -> PermSet:
    """Union of all length-``length`` patterns of the members of ``t``."""
    if not 1 <= length <= t.degree:
        raise ValueError(f"pattern length {length} out of range 1..{t.degree}")
    if length == t.degree:
        return t
    return PermSet(length, _pat_words(t.word_set, length))


def _comp_step(
    words: AbstractSet[Word], k: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> set[Word]:
    """One level up: all (k+1)-words whose single-point deletions all lie in ``words``.

    ``ext[u]`` has bit v set iff ``lift(u, v) + (v,)`` is in ``words``.  For
    each w, deletion i < k of the candidates above w is one lookup of
    ``ext[delete(w, i)]``, widened to the k+1 values of v by doubling bit
    ``w[i]`` (see the module docstring); deletion k is w itself.

    Raises CapExceeded as soon as the level being built holds more than
    ``element_cap`` words.
    """
    ext: dict[Word, int] = {}
    if k:  # at degree 0 there is no deletion to look up
        for x in words:
            u = _delete_word(x, k - 1)
            ext[u] = ext.get(u, 0) | 1 << x[-1]
    full = (1 << (k + 2)) - 2
    out: set[Word] = set()
    for w in words:
        mask = full
        for c in w:
            # w is a permutation: deleting the position of c drops the value c
            m = ext.get(tuple([x if x < c else x - 1 for x in w if x != c]), 0)
            mask &= (m & ((2 << c) - 1)) | (m >> c << (c + 1))
            if not mask:
                break
        else:
            for v in range(1, k + 2):
                if mask >> v & 1:
                    out.add((*[x if x < v else x + 1 for x in w], v))
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


def gpat(g: PermGroup, length: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """The group generated by the length-``length`` patterns of ``g``."""
    pats = pat_set(g, length)
    return PermGroup.closure(sorted(pats.word_set), length, element_cap)


def gcomp(g: PermGroup, m: int) -> PermGroup:
    """Compatibility set of a group, verified to be a group itself."""
    return PermGroup.from_words(comp_set(g, m).word_set, m)


def comp_level_sequence(g: PermGroup, depth: int) -> list[PermGroup]:
    """The next ``depth`` levels above ``g``, each one computed from the last."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [PermGroup.from_words(words, k) for k, words in iter_levels(g, depth)]
