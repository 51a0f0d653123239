"""Closed-form prediction of compatibility levels above a permutation group.

Given a group of degree n, the classifier decides its structural class and
produces the next level(s) of the compatibility sequence without brute force:
exactly where a closed form exists, and as a (lower, upper) sandwich
otherwise.  It also names the eventual family the sequence settles into and a
bound on how many levels that takes.  Each class is stated once, in one branch
of ``Classification``: its kind, level rule, citation, family and bound.  Every
settled level is the family's member at its degree: a class's own rule covers
only the levels before it settles.  Above S_n every level is S_m, and
that one family member is named, not built: its prediction carries no
group, and the verifier checks the oracle level by its order m!.
Everything here is verified against the brute-force engine by the verifier
module.
"""
from __future__ import annotations

import enum
import itertools
import math
from functools import lru_cache, partial
from typing import NamedTuple

from . import partitions as parts
from .groups import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    _check_symmetric_order,
    _young_generators,
    _young_order,
    dihedral_interval_group,
    natural_cyclic_group,
    natural_dihedral_group,
    partition_automorphisms,
    sab_group,
    young_subgroup,
    young_with_reversal,
)
from .perms import (
    Word,
    _check_level_degree,
    _is_even_word,
    ajd,
    descending,
    dja,
    natural_cycle,
    parse_perm,
)


class ClassKind(enum.Enum):
    SYMMETRIC = "symmetric"
    ALTERNATING = "alternating"
    TRIVIAL = "trivial"
    DESC_ONLY = "descending-only"
    CONTAINS_NATURAL_CYCLE = "contains-natural-cycle"
    INTRANSITIVE = "intransitive"
    IMPRIMITIVE = "imprimitive"
    PRIMITIVE = "primitive"


class EventualFamily(NamedTuple):
    """One of the families a compatibility sequence eventually follows."""

    kind: str  # "symmetric" | "cyclic" | "sab"
    with_descending: bool = False
    a: int | None = None
    b: int | None = None

    @lru_cache(maxsize=None)
    def group_at(self, degree: int) -> PermGroup | None:
        """The family member at the given degree, built once per family and
        degree; None when not defined there.

        The full symmetric family is intentionally not materialised (callers
        compare by order, which determines it among subsets).
        """
        if self.kind == "symmetric":
            return None
        if self.kind == "cyclic":
            if self.with_descending:
                return natural_dihedral_group(degree)
            return natural_cyclic_group(degree)
        if self.a + self.b > degree:  # type: ignore[operator]
            return None
        pi = parts.end_blocks(degree, self.a, self.b)  # type: ignore[arg-type]
        return young_with_reversal(pi) if self.with_descending else young_subgroup(pi)

    def matches(self, g: PermGroup) -> bool:
        """True iff ``g`` equals the family member at its own degree."""
        if self.kind == "symmetric":
            return g.order == math.factorial(g.degree)  # a subset of S_n of full order
        return self.group_at(g.degree) == g

    def to_json(self) -> dict:
        return {
            "family": self.kind,
            "with_descending": self.with_descending,
            "a": self.a,
            "b": self.b,
        }


class Prediction(NamedTuple):
    """Classifier output for one level above the input group: the level
    itself (``exact``), or a sandwich ``lower`` <= level <= ``upper``.  When
    all three are None the level is the symmetric group S_m at ``degree``,
    named rather than built: it holds every word of degree m, so its order
    m! decides it among subsets of S_m."""

    degree: int
    exact: PermGroup | None
    lower: PermGroup | None
    upper: PermGroup | None
    eventual: EventualFamily
    citations: tuple[str, ...]


# ---------------------------------------------------------------------------
# alternating groups

def _alternating_next_group(n: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """The level right above the degree-n alternating group.

    Its members alternate between odd and even values along the word: either
    value parity equals position parity everywhere and the permutation is
    even, or the two parities are interchanged everywhere and the permutation
    is odd.  The interchanged half exists only at even target degree.
    """
    m = n + 1
    odds = tuple(range(1, m + 1, 2))
    evens = tuple(range(2, m + 1, 2))
    # values at positions 1, 3, 5, ...; values at positions 2, 4, ...; word even
    halves = [(odds, evens, True)]
    if m % 2 == 0:
        halves.append((evens, odds, False))
    words: list[Word] = []
    for first, second, even in halves:
        for p1 in itertools.permutations(first):
            for p2 in itertools.permutations(second):
                w = [0] * m
                w[0::2] = p1
                w[1::2] = p2
                if _is_even_word(w) == even:
                    words.append(bytes(w))
    return PermGroup.from_words(words, m, element_cap)


# ---------------------------------------------------------------------------
# primitive groups: lookup tables

@lru_cache(maxsize=1)
def _table_degree6() -> tuple[tuple[PermGroup, tuple[Word, ...]], ...]:
    """Degree-6 primitive groups paired with the generators of their level."""
    def grp(*cycles: str) -> PermGroup:
        return PermGroup.closure([parse_perm(c, 6).word for c in cycles], 6)

    def words(*texts: str) -> tuple[Word, ...]:
        return tuple(parse_perm(t).word for t in texts)

    return (
        (grp("(1 2 3 4)", "(3 4 5 6)"), words("2154376", "7654321")),
        (grp("(1 2 3 4)", "(2 3 4 5 6)"), words("1276543", "1543276")),
        (grp("(1 2 3 4 5)", "(3 4 5 6)"), words("2165437", "5432167")),
        (grp("(1 2 3 4 5)", "(1 3 4)(2 5 6)"), words("5432167")),
        (grp("(2 3 4 5 6)", "(1 2 5)(3 4 6)"), words("1276543")),
    )


def _interval_dihedral_rows(n: int) -> list[tuple[PermGroup, Word]]:
    """Interval-dihedral subgroups whose presence pins the next level exactly,
    paired with the single generator of that next level."""
    rows = []
    if n >= 3:
        rows.append((dihedral_interval_group(n, 1, n - 1), dja(n + 1, n - 1).word))
        rows.append((dihedral_interval_group(n, 2, n), ajd(n + 1, n - 1).word))
    if n >= 4:
        rows.append((dihedral_interval_group(n, 1, n - 2), dja(n + 1, n - 2).word))
        rows.append((dihedral_interval_group(n, 3, n), ajd(n + 1, n - 2).word))
    return rows


# ---------------------------------------------------------------------------
# per-class level values

def _young_level(
    pi: parts.Partition, i: int, with_reversal: bool, element_cap: int
) -> PermGroup:
    pi_i = parts.derive_iter(pi, i)
    build = young_with_reversal if with_reversal else young_subgroup
    return build(pi_i, element_cap)


def _autpi_level(pi: parts.Partition, i: int, element_cap: int) -> PermGroup:
    """Value of the compatibility level i above the full block-automorphism
    group of ``pi`` (a partition with no trivial blocks)."""
    n = pi.size
    symmetric_under_reversal = parts.reverse_partition(pi) == pi
    if i == 1:
        gens = list(_young_generators(parts.derive(pi), element_cap))
        gens += [p.word for p in parts.interwoven_generators(pi)]
        if symmetric_under_reversal:
            gens.append(descending(n + 1).word)
        return PermGroup.closure(gens, n + 1, element_cap)
    if len(pi.blocks) > 1 and parts.interwoven(pi, 1, n):
        return natural_dihedral_group(n + i)
    return _young_level(pi, i, symmetric_under_reversal, element_cap)


def _reversal_young_shape(g: PermGroup, element_cap: int) -> parts.Partition | None:
    """A partition whose Young subgroup together with the reversal equals
    ``g`` and satisfies the shape needed for an exact level formula:
    an interval partition, symmetric under reversal, with no two consecutive
    nontrivial blocks.  None when ``g`` is not of that shape.

    ``g`` must hold the reversal.  The reversal then maps each orbit onto
    itself, and each maximal run too, since it keeps adjacent points
    adjacent; on the split candidate it only swaps the two middle
    singletons.  So every candidate is symmetric under reversal."""
    n = g.degree
    gamma = parts.max_intervals(g.orbits())
    candidates = [gamma]
    if n % 2 == 0:
        mid = gamma.block_of(n // 2)
        if mid == (n // 2, n // 2 + 1):
            split = [b for b in gamma.blocks if b != mid]
            split += [(n // 2,), (n // 2 + 1,)]
            candidates.append(parts.Partition.from_blocks(split))
    for pi in candidates:
        if parts.has_consecutive_nontrivial_blocks(pi):
            continue
        if g.order != 2 * _young_order(pi):
            continue
        if young_with_reversal(pi, element_cap) == g:
            return pi
    return None


def _value_symmetric(g, i, element_cap):
    # every level is S_m, named by the family and never built; past the cap
    # it is refused as building it would be
    _check_symmetric_order(g.degree + i, element_cap)


def _value_alternating(g, i, element_cap):
    if i > 1:
        return None
    cites = ("comp-alternating-parity-sieve",)
    return _alternating_next_group(g.degree, element_cap), None, None, cites


def _value_intransitive(family, g, i, element_cap):
    n = g.degree
    theta = g.orbits()
    if g.order == _young_order(theta):  # G lies in the Young subgroup of its orbits
        cites = ("comp-young-derivative",)
        return _young_level(theta, i, family.with_descending, element_cap), None, None, cites
    if family.with_descending:
        pi = _reversal_young_shape(g, element_cap)
        if pi is not None:
            return (
                _young_level(pi, i, True, element_cap),
                None,
                None,
                ("comp-young-reversal-derivative",),
            )
    lower = sab_group(n + i, family.a, family.b, element_cap)
    delta_fixes_orbits = all(
        tuple(sorted(n + 1 - x for x in blk)) == blk for blk in theta.blocks
    )
    upper = _young_level(theta, i, delta_fixes_orbits, element_cap)
    return None, lower, upper, ("comp-orbit-sandwich",)


def _value_imprimitive(family, systems, g, i, element_cap):
    for pi in systems:
        if partition_automorphisms(pi, element_cap) == g:
            cite = (
                "comp-block-automorphism-step" if i == 1 else "comp-block-automorphism-tail"
            )
            return _autpi_level(pi, i, element_cap), None, None, (cite,)
    lower = sab_group(g.degree + i, family.a, family.b, element_cap)
    upper_words = frozenset.intersection(
        *(_autpi_level(pi, i, element_cap).word_set for pi in systems)
    )
    upper = PermGroup.from_words(upper_words, g.degree + i, element_cap)
    return None, lower, upper, ("comp-imprimitive-sandwich",)


def _primitive_row(g: PermGroup) -> tuple[Word, ...] | None:
    """The generators of the level above a primitive group, from the table
    row that pins it: at degree 6 the row of ``g`` itself, elsewhere the row
    of the one interval-dihedral subgroup of ``g``.  None when no row matches."""
    n = g.degree
    if n == 6:
        return next((words for table_group, words in _table_degree6() if table_group == g), None)
    matches = [gen for sub, gen in _interval_dihedral_rows(n) if sub.is_subgroup_of(g)]
    if len(matches) > 1:
        raise AssertionError(
            f"multiple interval-dihedral rows match a primitive group of degree {n}"
        )
    return (matches[0],) if matches else None


def _value_primitive(g, i, element_cap):
    # searched again per level after __init__ searched it; searching once per
    # group moves the from_words counts that perfbench/reference.json pins
    row = _primitive_row(g)
    if row is None or i > 1:
        return None
    level = PermGroup.closure(row, g.degree + 1, element_cap)
    cite = "comp-primitive-degree6-table" if g.degree == 6 else "comp-primitive-interval-dihedral"
    return level, None, None, (cite,)


class Classification:
    """The kind, level rule, eventual family and onset bound of one group,
    computed once and shared by the predictions of all its levels."""

    def __init__(self, g: PermGroup, *, element_cap: int = DEFAULT_ELEMENT_CAP):
        n = g.degree
        if n < 2:
            raise ValueError("classification needs degree >= 2")
        self.group = g
        self.element_cap = element_cap
        has_desc = descending(n).word in g.word_set
        # The first matching class in priority order wins.  Each branch states
        # the kind, its level rule (None: every level is the family member),
        # the citation of the levels the family gives, the family and the bound.
        if g.order == math.factorial(n):
            kind, rule = ClassKind.SYMMETRIC, _value_symmetric
            cite, family, bound = "comp-symmetric-step", EventualFamily("symmetric"), 0
        elif g.order == math.factorial(n) // 2 and all(_is_even_word(w) for w in g.generator_words):
            # the second level collapses to the reversal group, the natural
            # dihedral group, the trivial group or the natural cyclic group as
            # n mod 4 = 0, 1, 2, 3: A_n holds the reversal exactly when n mod 4
            # is 0 or 1, and the natural cycle exactly when n is odd
            kind, rule = ClassKind.ALTERNATING, _value_alternating
            cite, bound = "comp-alternating-collapse", 2
            cyclic = EventualFamily("cyclic", has_desc)
            family = cyclic if n % 2 else EventualFamily("sab", has_desc, 1, 1)
        elif g.order == 1:
            kind, rule = ClassKind.TRIVIAL, None
            cite, family, bound = "comp-trivial-step", EventualFamily("sab", False, 1, 1), 0
        elif g.order == 2 and has_desc:
            kind, rule = ClassKind.DESC_ONLY, None
            cite, family, bound = "comp-reversal-step", EventualFamily("sab", True, 1, 1), 0
        elif natural_cycle(n).word in g.word_set:
            kind, rule = ClassKind.CONTAINS_NATURAL_CYCLE, None
            cite = f"comp-natural-cycle-{'dihedral' if has_desc else 'cyclic'}"
            family = EventualFamily("cyclic", has_desc)
            bound = 0 if family.matches(g) else 1
        elif not g.is_transitive():
            cite, family = None, EventualFamily("sab", has_desc, *g.largest_ab())
            kind, rule = ClassKind.INTRANSITIVE, partial(_value_intransitive, family)
            bound = parts.mu_ab(g.orbits(), family.a, family.b)
        elif systems := g.block_systems():
            cite, family = None, EventualFamily("sab", has_desc, *g.largest_ab())
            kind, rule = ClassKind.IMPRIMITIVE, partial(_value_imprimitive, family, systems)
            bound = min(max(parts.mu_ab(pi, family.a, family.b), 2) for pi in systems)
        else:
            kind, rule = ClassKind.PRIMITIVE, _value_primitive
            cite, family = "comp-primitive-reversal-cap", EventualFamily("sab", has_desc, 1, 1)
            # settles by level 2 at the latest, by level 1 without a table hit
            bound = 1 if _primitive_row(g) is None else 2
        self.kind, self.eventual, self.onset_bound = kind, family, bound
        self._rule, self._settled_citation = rule, cite

    def level(self, i: int) -> Prediction:
        """Predict the compatibility level ``i`` steps above the group: by the
        class's own rule, or by the eventual family once the rule is past."""
        if i < 1:
            raise ValueError("level must be >= 1")
        m = self.group.degree + i
        _check_level_degree(m)
        found = self._rule(self.group, i, self.element_cap) if self._rule else None
        if found is None:
            found = self.eventual.group_at(m), None, None, (self._settled_citation,)
        exact, lower, upper, cites = found
        return Prediction(m, exact, lower, upper, self.eventual, cites)


# ---------------------------------------------------------------------------
# public prediction entry points

def predict_eventual(g: PermGroup) -> tuple[EventualFamily, int]:
    """The family the level sequence settles into, and a bound on the number
    of levels before it does."""
    c = Classification(g)
    return c.eventual, c.onset_bound


def predict_level(
    g: PermGroup, i: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> Prediction:
    """Predict the compatibility level ``i`` steps above ``g``."""
    return Classification(g, element_cap=element_cap).level(i)
