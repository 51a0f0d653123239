"""The pattern / compatibility operators between symmetric-group levels.

``pat_set`` collects all shorter patterns of a set; ``comp_set`` collects all
longer permutations whose patterns stay inside a set.  ``comp_set`` is the
brute-force oracle the closed-form classifier is verified against.

Levels are computed one degree at a time (the operators compose transitively
across intermediate degrees).  For a single step from degree k to k+1, a
candidate is kept iff its k+1 single-point deletions all lie in the previous
level; candidates are generated by appending a new last point to each member
of the previous level, which enumerates every permutation whose last-point
deletion lies there.  Peak work and memory are proportional to the level
sizes, never to (k+1)!.
"""
from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator

from .groups import DEFAULT_ELEMENT_CAP, PermGroup, PermSet
from .perms import CapExceeded, Perm, _delete_word

DEFAULT_MAX_ENUM_DEGREE = 11

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
    return PermSet(length, _pat_words(t.words, length))


def _comp_step(
    words: AbstractSet[Word], k: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> set[Word]:
    """One level up: all (k+1)-words whose k single-point deletions lie in ``words``.

    Raises CapExceeded as soon as the level being built holds more than
    ``element_cap`` words.
    """
    out: set[Word] = set()
    delete = _delete_word
    for w in words:
        for v in range(1, k + 2):
            cand = tuple(x if x < v else x + 1 for x in w) + (v,)
            for i in range(k):
                if delete(cand, i) not in words:
                    break
            else:
                out.add(cand)
        if len(out) > element_cap:
            raise CapExceeded(
                f"level degree {k + 1} exceeded the element cap of {element_cap} "
                f"({len(out)} words reached)"
            )
    return out


def iter_levels(
    s: PermSet,
    depth: int,
    max_degree: int = DEFAULT_MAX_ENUM_DEGREE,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> Iterator[tuple[int, set[Word]]]:
    """Yield ``(degree, words)`` for the ``depth`` levels above ``s``, each
    built from the one before.

    Refuses before building anything when the top level would pass
    ``max_degree``; a level holding more than ``element_cap`` words raises
    while it is built.
    """
    top = s.degree + depth
    if depth > 0 and top > max_degree:
        raise CapExceeded(f"degree {top} exceeds the enumeration cap of {max_degree}")
    words: AbstractSet[Word] = s.word_set
    for k in range(s.degree, top):
        words = _comp_step(words, k, element_cap)
        yield k + 1, words


def comp_set(
    s: PermSet,
    m: int,
    max_degree: int = DEFAULT_MAX_ENUM_DEGREE,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> PermSet:
    """All degree-``m`` permutations whose patterns at degree(s) lie in ``s``."""
    if m <= s.degree:
        raise ValueError(f"target degree {m} must exceed {s.degree}")
    for _, words in iter_levels(s, m - s.degree, max_degree, element_cap):
        pass
    return PermSet(m, words)


def gpat(g: PermGroup, length: int, element_cap: int | None = None) -> PermGroup:
    """The group generated by the length-``length`` patterns of ``g``."""
    cap = DEFAULT_ELEMENT_CAP if element_cap is None else element_cap
    pats = pat_set(g, length)
    return PermGroup.closure([Perm(w) for w in pats.words], length, cap)


def gcomp(g: PermGroup, m: int, max_degree: int = DEFAULT_MAX_ENUM_DEGREE) -> PermGroup:
    """Compatibility set of a group, verified to be a group itself."""
    return PermGroup.from_words(comp_set(g, m, max_degree).words, m)


def comp_level_sequence(
    g: PermGroup, depth: int, max_degree: int = DEFAULT_MAX_ENUM_DEGREE
) -> list[PermGroup]:
    """The next ``depth`` levels above ``g``, each one computed from the last."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [PermGroup.from_words(words, k) for k, words in iter_levels(g, depth, max_degree)]
