"""Reconcile classifier predictions and structural laws against brute force.

Every check produces a machine-readable Report.  A failing report always
carries a counterexample payload; a cap-induced skip is reported as skipped,
never silently passed.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from typing import AbstractSet, Callable, Iterable, NamedTuple

from . import perms as perms_mod
from . import partitions as parts
from .classify import (
    EventualFamily,
    Prediction,
    predict_eventual,
    predict_level,
)
from .galois import comp_set, iter_levels, pat_set
from .groups import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    PermSet,
    _check_subgroup_degree,
    _check_symmetric_order,
    _extend,
    describe_group,
    enumerate_subgroups,
    natural_cyclic_group,
    natural_dihedral_group,
    parse_group,
    partition_automorphisms,
    symmetric_group,
    young_subgroup,
)
from .partitions import _block_fixing
from .perms import (
    MAX_DEGREE,
    CapExceeded,
    Perm,
    Word,
    _check_depth,
    _check_level_degree,
    ascending,
    descending,
    natural_cycle,
)


class Report(NamedTuple):
    check_id: str
    scope: str
    status: str  # "pass" | "fail" | "skipped"
    counterexample: dict | None = None
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def _run_check(check_id: str, scope: str, fn: Callable[[], dict | None]) -> Report:
    start = time.perf_counter()
    try:
        cx = fn()
        status = "pass" if cx is None else "fail"
    except CapExceeded as exc:
        status, cx = "skipped", {"reason": str(exc)}
    return Report(check_id, scope, status, cx, int((time.perf_counter() - start) * 1000))


#: Members a counterexample lists of a word set, the first in sorted order.
_PAYLOAD_MEMBERS = 24


def _words_payload(words: Iterable[Word]) -> dict:
    ws = sorted(words)
    shown = [perms_mod.format_perm(Perm(w)) for w in ws[:_PAYLOAD_MEMBERS]]
    out = {"size": len(ws), "members": shown}
    if len(ws) > _PAYLOAD_MEMBERS:
        out["truncated"] = True
    return out


# ---------------------------------------------------------------------------
# prediction vs oracle

def verify_prediction(
    g: PermGroup, depth: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> Report:
    """Compare predicted levels 1..depth against the brute-force engine."""
    _check_depth(depth)
    scope = f"{describe_group(g)} depth={depth}"

    def run() -> dict | None:
        # levels up to the degree limit are compared before the limit skips the rest
        reachable = max(0, min(depth, MAX_DEGREE - g.degree))
        for k, words in iter_levels(g, reachable, element_cap=element_cap):
            i = k - g.degree
            cx = _compare_level(predict_level(g, i, element_cap=element_cap), words, i)
            if cx is not None:
                return cx
        _check_level_degree(g.degree + depth)
        return None

    return _run_check("prediction", scope, run)


def _compare_level(pred: Prediction, oracle: AbstractSet[Word], level: int) -> dict | None:
    if pred.exact is pred.lower is pred.upper is None:
        # S_m, named: every oracle word is a permutation of degree m, so the
        # level is S_m exactly when it has m! words.  S_m is built only to
        # show a miss, under a cap of its own order, so a miss never skips.
        order = math.factorial(pred.degree)
        if len(oracle) == order:
            return None
        pred = pred._replace(exact=symmetric_group(pred.degree, order))
    if pred.exact is not None:
        checks = [("exact", pred.exact.word_set, pred.exact.word_set == oracle)]
    else:
        assert pred.lower is not None and pred.upper is not None
        checks = [
            ("lower-bound", pred.lower.word_set, pred.lower.word_set <= oracle),
            ("upper-bound", pred.upper.word_set, oracle <= pred.upper.word_set),
        ]
    for mode, expected, holds in checks:
        if not holds:
            return {
                "level": level,
                "mode": mode,
                "expected": _words_payload(expected),
                "actual": _words_payload(oracle),
            }
    return None


# ---------------------------------------------------------------------------
# eventual families observed by brute force

def _family_candidates(g: PermGroup) -> list[EventualFamily]:
    """Families whose member at this degree equals ``g``, in priority order."""
    out = []
    cyclic = EventualFamily("cyclic", True), EventualFamily("cyclic", False)
    for fam in (EventualFamily("symmetric"), *cyclic):
        if fam.matches(g):
            out.append(fam)
    a, b = g.largest_ab()
    for desc in (False, True):
        if desc and a != b:
            continue
        fam = EventualFamily("sab", desc, a, b)
        if fam.matches(g):
            out.append(fam)
    return out


def eventual_onset(
    g: PermGroup, max_depth: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[list[EventualFamily], int | None]:
    """Walk the level sequence and find where it enters an eventual family.

    Returns (surviving family candidates, observed level); candidates survive
    only if they match at the observed level and at every further computed
    level, and at least one further level was computed (a single coincidental
    match never declares onset).  Returns ([], None) when nothing is found
    within ``max_depth`` levels.  Raises CapExceeded, naming the degree,
    before building anything when ``g.degree + max_depth`` passes
    ``MAX_DEGREE``, and while a level outgrows the element cap.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    levels = [g]
    for k, words in iter_levels(g, max_depth, element_cap=element_cap):
        levels.append(PermGroup.from_words(words, k, element_cap))
    for m in range(len(levels) - 1):
        survivors = [
            fam
            for fam in _family_candidates(levels[m])
            if all(fam.matches(lv) for lv in levels[m + 1 :])
        ]
        if survivors:
            return survivors, m
    return [], None


def _onset_report(g: PermGroup, *, element_cap: int) -> Report:
    scope = describe_group(g)

    def run() -> dict | None:
        fam, bound = predict_eventual(g)
        survivors, observed = eventual_onset(g, bound + 1, element_cap=element_cap)
        if observed is None:  # the walk tests onset at levels 0..bound only
            return {
                "predicted_family": fam.to_json(),
                "onset_bound": bound,
                "observed": None,
                "reason": "no family detected within the bound",
            }
        if fam not in survivors:
            return {
                "predicted_family": fam.to_json(),
                "observed_families": [f.to_json() for f in survivors],
                "observed": observed,
                "reason": "family mismatch",
            }
        return None

    return _run_check("onset", scope, run)


# ---------------------------------------------------------------------------
# catalogs

def verify_group(
    g: PermGroup, depth: int, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> list[Report]:
    return [
        verify_prediction(g, depth, element_cap=element_cap),
        _onset_report(g, element_cap=element_cap),
    ]


def verify_catalog(
    n: int, depth: int = 2, *, element_cap: int = DEFAULT_ELEMENT_CAP
) -> list[Report]:
    """Run prediction and onset checks over every subgroup of degree ``n``."""
    # refuse up front what every group would refuse after the enumeration:
    # no level to compare, a degree with no catalog (a usage error under any
    # cap), or S_n (which enumerate_subgroups builds) past the cap
    _check_depth(depth)
    _check_subgroup_degree(n)
    _check_symmetric_order(n, element_cap)
    reports = [
        r
        for g in enumerate_subgroups(n)
        for r in verify_group(g, depth, element_cap=element_cap)
    ]
    reports.sort(key=lambda r: (r.check_id, r.scope))
    return reports


# ---------------------------------------------------------------------------
# structural law suites

def _random_perm(rng: random.Random, n: int) -> Perm:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Perm(word)


def _random_word_set(rng: random.Random, n: int, max_size: int) -> PermSet:
    size = rng.randint(1, max_size)
    return PermSet(n, {_random_perm(rng, n).word for _ in range(size)})


def _law_product_containment(rng):
    """Every length-l pattern of a product pi tau is a product s t of
    length-l patterns s of pi and t of tau: the pattern of pi tau at the
    positions I is that of pi at tau(I) times that of tau at I.  The
    independent side is the patterns of the one composed word against the
    products of the factors' patterns; a ``compose`` that moves values
    fails it."""
    for _ in range(60):
        n = rng.randint(2, 7)
        length = rng.randint(1, n)
        pi, tau = _random_perm(rng, n), _random_perm(rng, n)
        prod = perms_mod.compose(pi, tau)
        left = set(perms_mod.all_patterns(prod, length))
        pairs = {
            perms_mod.compose(s, t)
            for s in perms_mod.all_patterns(pi, length)
            for t in perms_mod.all_patterns(tau, length)
        }
        if not left <= pairs:
            return {"pi": str(pi), "tau": str(tau), "length": length}
    return None


def _law_partial_order(rng):
    """Involvement is a partial order: reflexive, antisymmetric (two words
    of one length involve each other only when equal) and transitive.  The
    independent side is word equality for antisymmetry, and for
    transitivity a pattern of a pattern of pi, taken by ``pattern`` at
    positions drawn here, which ``involves`` must find in pi."""
    for _ in range(40):
        n = rng.randint(1, 7)
        pi = _random_perm(rng, n)
        if not perms_mod.involves(pi, pi):
            return {"reflexivity": str(pi)}
        tau = _random_perm(rng, n)
        if perms_mod.involves(tau, pi) != (tau == pi):
            return {"antisymmetry": [str(tau), str(pi)]}
        m = rng.randint(1, n)
        idx_m = sorted(rng.sample(range(1, n + 1), m))
        mid = perms_mod.pattern(pi, idx_m)
        l = rng.randint(1, m)
        idx_l = sorted(rng.sample(range(1, m + 1), l))
        low = perms_mod.pattern(mid, idx_l)
        if not perms_mod.involves(low, pi):
            return {"transitivity": [str(low), str(mid), str(pi)]}
    return None


def _law_interpolation(rng):
    """Involvement interpolates: when sigma of length l lies in tau of
    length n, every length m from l to n has a pattern of tau that holds
    sigma, the pattern at an occurrence of sigma and m - l more positions.
    The independent side is that sigma is drawn from tau's own patterns, so
    ``involves`` must find it in one of tau's length-m patterns."""
    for _ in range(25):
        n = rng.randint(2, 7)
        tau = _random_perm(rng, n)
        l = rng.randint(1, n - 1)
        sigma = rng.choice(perms_mod.all_patterns(tau, l))
        for m in range(l, n + 1):
            if not any(
                perms_mod.involves(sigma, piv)
                for piv in perms_mod.all_patterns(tau, m)
            ):
                return {"sigma": str(sigma), "tau": str(tau), "m": m}
    return None


def _one_jump_family(n: int) -> set[Word]:
    out: set[Perm] = set()
    d = descending(n)
    for length in range(2, n - 1):
        for base in (perms_mod.dja(n, length), perms_mod.ajd(n, length)):
            out.add(base)
            out.add(perms_mod.compose(d, base))
    for j in range(1, n):
        # z^j for the natural cycle z: the rotation j+1 ... n 1 ... j
        zj = Perm((*range(j + 1, n + 1), *range(1, j + 1)))
        out.add(zj)
        out.add(perms_mod.compose(d, zj))
    # at degree 2 the cycle powers collapse into the jump-free words
    return {p.word for p in out} - {ascending(n).word, descending(n).word}


def _law_jump_characterization(_):
    """A permutation has no jump exactly when it is ascending or descending,
    and exactly one when it is a dja or ajd word with a block of length
    2..n-2, a power of the natural cycle, or the complement of one of these.
    The independent side is that family, written out by the constructors and
    as rotations, which read no adjacent values, against ``jumps`` on every
    permutation of degree 2..7."""
    for n in range(2, 8):
        none_expected = {ascending(n).word, descending(n).word}
        one_expected = _one_jump_family(n)
        for word in map(bytes, itertools.permutations(range(1, n + 1))):
            p = Perm(word)
            k = len(perms_mod.jumps(p))
            if (k == 0) != (word in none_expected):
                return {"perm": str(p), "jumps": k, "expected_zero": word in none_expected}
            if (k == 1) != (word in one_expected):
                return {"perm": str(p), "jumps": k, "expected_one": word in one_expected}
    return None


def _law_dihedral_criterion(_):
    """A permutation lies in the natural dihedral group D_n exactly when
    every two adjacent values differ by 1 modulo n.  The independent side is
    that test on adjacent values, against the closure of
    ``natural_dihedral_group``'s generators, on every permutation of degree
    3..7."""
    for n in range(3, 8):
        dn = natural_dihedral_group(n)
        for word in map(bytes, itertools.permutations(range(1, n + 1))):
            consecutive = all(
                (word[t] - word[t + 1]) % n in (1, n - 1) for t in range(n - 1)
            )
            if consecutive != (word in dn.word_set):
                return {"perm": str(Perm(word)), "n": n}
    return None


def _law_parity_deletion(_):
    """Deleting the first point keeps the parity exactly when p(1) is odd:
    the p(1) - 1 inversions of p(1) with the smaller values go with it.  The
    independent side is the parity of p(1), read off the word, against
    ``parity`` of p and of ``delete_point(p, 1)``, on every permutation of
    degree 2..7."""
    for n in range(2, 8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Perm(word)
            same = perms_mod.parity(p) == perms_mod.parity(perms_mod.delete_point(p, 1))
            if same != (word[0] % 2 == 1):
                return {"perm": str(p)}
    return None


def _law_symmetry_involvement(rng):
    """Reversal, complement and inverse keep involvement: tau lies in pi
    exactly when op(tau) lies in op(pi), since op maps each occurrence of
    tau in pi to one of op(tau) in op(pi).  The pattern of pi at the
    positions I, under op, is the pattern of op(pi) at n+1-I, at I or at
    pi(I).  The independent side is that position map, with op of the
    pattern written out on its word here, against ``pattern`` of op(pi);
    an op that keeps involvement without being the symmetry, such as an
    identity ``inverse``, fails it."""
    for _ in range(40):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        pi = _random_perm(rng, n)
        tau = _random_perm(rng, k)
        base = perms_mod.involves(tau, pi)
        positions = sorted(rng.sample(range(1, n + 1), k))
        sigma = perms_mod.pattern(pi, positions).word
        for op, at, image in (
            (perms_mod.reverse, [n + 1 - i for i in positions], sigma[::-1]),
            (perms_mod.complement, positions, bytes(k + 1 - v for v in sigma)),
            (
                perms_mod.inverse,
                [pi.word[i - 1] for i in positions],
                bytes(sigma.index(v) + 1 for v in range(1, k + 1)),
            ),
        ):
            if perms_mod.involves(op(tau), op(pi)) != base:
                return {"tau": str(tau), "pi": str(pi), "op": op.__name__}
            if perms_mod.pattern(op(pi), at).word != image:
                return {"pi": str(pi), "positions": positions}
    return None


def _law_adjacent_quotient(_):
    """The pattern left by deleting position i+1, times the inverse of the
    one left by deleting position i, is one cycle on the values from the
    smaller of p(i), p(i+1) up to one below the larger: shift-up when p
    ascends across the gap, shift-down otherwise.  The independent side is
    that cycle, written out from p(i) and p(i+1) alone, against
    ``adjacent_pattern_quotient`` at every position of every permutation of
    degree 2..6."""
    for n in range(2, 7):
        for word in itertools.permutations(range(1, n + 1)):
            p = Perm(word)
            for i in range(1, n):
                gamma = perms_mod.adjacent_pattern_quotient(p, i)
                j, k = word[i - 1], word[i]
                cyc = list(range(1, n))
                if j < k:
                    for x in range(j, k - 1):
                        cyc[x - 1] = x + 1
                    cyc[k - 2] = j
                elif j > k:
                    for x in range(k + 1, j):
                        cyc[x - 1] = x - 1
                    cyc[k - 1] = j - 1
                if gamma.word != bytes(cyc):
                    return {"perm": str(p), "i": i, "gamma": str(gamma)}
    return None


def _law_cycle_prefix_generation(_):
    """The natural cycle (1 2 ... n) and the prefix cycle (1 2 ... m),
    1 < m < n, generate A_n when m and n are both odd and S_n otherwise.
    The independent side is the order n!/2 or n!, read off the parity of m
    and n, against the closure of ``natural_cycle(n)`` and the prefix cycle
    parsed from cycle notation."""
    for n in range(3, 8):
        for m in range(2, n):
            prefix = perms_mod.parse_perm(
                "(" + " ".join(str(x) for x in range(1, m + 1)) + ")", n
            )
            g = PermGroup.closure([natural_cycle(n).word, prefix.word], n)
            both_odd = (m % 2 == 1) and (n % 2 == 1)
            expected = math.factorial(n) // 2 if both_odd else math.factorial(n)
            if g.order != expected:
                return {"n": n, "m": m, "order": g.order}
    return None


@functools.lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[parts.Partition, ...]:
    """Every partition of 1..n, built once per degree: each partition of
    1..n-1 with n added to each of its blocks in turn, then as a block of
    its own.  Blocks stay sorted and ordered by their minimum, so each is
    already in ``Partition`` form."""
    if n <= 1:
        return (parts.Partition(1, ((1,),)),) if n == 1 else ()
    out = []
    for p in _all_partitions(n - 1):
        blocks = p.blocks
        for i, b in enumerate(blocks):
            out.append(parts.Partition(n, (*blocks[:i], (*b, n), *blocks[i + 1 :])))
        out.append(parts.Partition(n, (*blocks, (n,))))
    return tuple(out)


def _law_young_join(_):
    """Each Young subgroup is every word mapping each block onto itself (an
    exhaustive filter of S_n, ``_block_fixing``), and <S_p, S_q> = S_(p v q):
    S_p, checked against the filter, extended by each generator of S_q
    outside it.  The join and the generated group are both symmetric in p
    and q, so each unordered pair is closed once, with p = q among them; a
    failing library may report a pair in either order."""
    for n in range(2, 6):
        all_parts = _all_partitions(n)
        young = {p: young_subgroup(p) for p in all_parts}
        sym = list(map(bytes, itertools.permutations(range(1, n + 1))))
        for p in all_parts:
            if young[p].word_set != _block_fixing(p, sym):
                return {"partition": str(p)}
        for p, q in itertools.combinations_with_replacement(all_parts, 2):
            joined, gens = set(young[p].word_set), list(young[p].generator_words)
            for g in young[q].generator_words:
                if g not in joined:
                    _extend(joined, gens, g, DEFAULT_ELEMENT_CAP)
            if joined != young[parts.join(p, q)].word_set:
                return {"p": str(p), "q": str(q)}
    return None


def _law_orbit_minimality(_):
    """The orbit partition of G is the finest partition whose Young subgroup
    holds G: G lies in the Young subgroup of its orbits and in that of no
    strictly finer partition, for every subgroup G of S_3..S_5.  The orbits
    come from the union-find over the generators; the other side is each
    Young subgroup, closed from its block transpositions (and checked
    against the block-fixing filter by law-young-join-generation), over
    every partition of 1..n."""
    for n in (3, 4, 5):
        partitions = _all_partitions(n)
        young = {p: young_subgroup(p) for p in partitions}
        finer = {q: [p for p in partitions if p != q and parts.refines(p, q)] for q in partitions}
        for g in enumerate_subgroups(n):
            theta = g.orbits()
            if not g.is_subgroup_of(young[theta]):
                return {"group": describe_group(g), "orbits": str(theta)}
            for p in finer[theta]:
                if g.is_subgroup_of(young[p]):
                    return {"group": describe_group(g), "finer": str(p)}
    return None


def _law_lagrange(_):
    """The order of every subgroup of S_n divides n!, for n = 3 and 4.  The
    independent side is n! itself, against the size of each element set
    ``enumerate_subgroups`` returns; a set that is no group is seen only
    when its size divides no n!."""
    for n in (3, 4):
        for g in enumerate_subgroups(n):
            if math.factorial(n) % g.order:
                return {"group": describe_group(g), "order": g.order}
    return None


def _degree6_sample() -> list[PermGroup]:
    return [
        natural_cyclic_group(6),
        natural_dihedral_group(6),
        partition_automorphisms(parts.parse_partition("1,2|3,4|5,6")),
        partition_automorphisms(parts.parse_partition("1,3,5|2,4,6")),
        parse_group("gens:6:(1 2 3 4);(3 4 5 6)"),
        parse_group("gens:6:(1 2 3 4 5);(1 3 4)(2 5 6)"),
        symmetric_group(6),
    ]


def _law_block_system_soundness(_):
    """Each block system of a transitive group G is a partition of 1..n
    into two or more blocks of one size, short of all singletons, that every
    element of G maps onto itself; and G is primitive exactly when there is
    no such partition.  The block systems come from the union-find over G's
    generators; the other side is an exhaustive filter: every partition of
    1..n of that shape, tested against every element of G."""
    groups = [g for n in (4, 5) for g in enumerate_subgroups(n) if g.is_transitive()]
    groups += _degree6_sample()
    for g in groups:
        n = g.degree
        invariant = [
            p
            for p in _all_partitions(n)
            if 1 < len(p.blocks) < n
            and len({len(b) for b in p.blocks}) == 1
            and all(
                parts.Partition.from_blocks([sorted(w[x - 1] for x in b) for b in p.blocks])
                == p
                for w in g.word_set
            )
        ]
        for pi in g.block_systems():
            if pi not in invariant:
                return {"group": describe_group(g), "system": str(pi)}
        if g.is_primitive() != (not invariant):
            return {"group": describe_group(g), "primitive": g.is_primitive()}
    return None


def _shift_up(p: parts.Partition) -> parts.Partition:
    # blocks shifted by +1 with the new element 1 joined to the shifted block of 1
    blocks = []
    for b in p.blocks:
        nb = [x + 1 for x in b]
        if 1 in b:
            nb = [1] + nb
        blocks.append(nb)
    return parts.Partition.from_blocks(blocks)


def _extend_last(p: parts.Partition) -> parts.Partition:
    blocks = [list(b) + ([p.size + 1] if p.size in b else []) for b in p.blocks]
    return parts.Partition.from_blocks(blocks)


def _law_derive_meet_form(_):
    """The derived partition is a meet: with m the maximal intervals of p,
    derive(p) is m shifted up by one with the new point 1 joined to the
    block of 2, met with m with n+1 joined to the block of n.  The two
    shifts are written here and ``meet`` is checked against its definition
    in the tests, so this side shares nothing with derive's case analysis
    but ``max_intervals``, which both sides start from.  The meet is built
    once per distinct m, 255 of the 5295 partitions, and derive(p) is
    compared for every p."""
    expected = {}
    for n in range(1, 9):
        for p in _all_partitions(n):
            m = parts.max_intervals(p)
            if m not in expected:
                expected[m] = parts.meet(_shift_up(m), _extend_last(m))
            if parts.derive(p) != expected[m]:
                return {"partition": str(p)}
    return None


def _law_derive_shape(_):
    """Every derived partition is an interval partition in which no two
    adjacent blocks both have two or more points.  The other side is the
    two predicates, which read the derived blocks directly, run once per
    distinct derived partition: 149 of them."""
    seen = set()
    for n in range(1, 9):
        for p in _all_partitions(n):
            d = parts.derive(p)
            if d in seen:
                continue
            seen.add(d)
            if not parts.is_interval_partition(d):
                return {"partition": str(p), "derived": str(d)}
            if parts.has_consecutive_nontrivial_blocks(d):
                return {"partition": str(p), "derived": str(d)}
    return None


def _law_derive_reversal(_):
    """The derivative keeps reversal symmetry: when p is fixed by x -> n+1-x,
    derive(p) is fixed by x -> n+2-x.  The other side is
    ``reverse_partition``, which maps each block through the reflection."""
    for n in range(1, 9):
        for p in _all_partitions(n):
            if parts.reverse_partition(p) == p:
                d = parts.derive(p)
                if parts.reverse_partition(d) != d:
                    return {"partition": str(p), "derived": str(d)}
    return None


def _law_measure_decrement(_):
    """Each derivative lowers mu, the size of the largest middle
    maximal-interval block, by one until it is 1: mu(derive(p)) = mu(p) - 1,
    or both are 1.  The other side is ``mu`` itself, read off the blocks of
    p and of derive(p); it takes no derivative."""
    for n in range(1, 9):
        for p in _all_partitions(n):
            before, after = parts.mu(p), parts.mu(parts.derive(p))
            if not (after == before == 1 or after == before - 1):
                return {"partition": str(p), "mu": [before, after]}
    return None


def _law_interwoven_disjoint(_):
    """In a partition with no trivial block, distinct interwoven intervals
    are disjoint, which ``interwoven_generators`` assumes when it keeps at
    most one interwoven prefix and one suffix.  The other side is every
    interval [a, b] tested by the definition, ``interwoven``, not the
    prefix and suffix scan."""
    for n in range(2, 9):
        for p in _all_partitions(n):
            if p.has_trivial_block():
                continue
            intervals = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if parts.interwoven(p, a, b)
            ]
            for (a, b), (c, d) in itertools.combinations(intervals, 2):
                if not (b < c or d < a):
                    return {"partition": str(p), "intervals": [[a, b], [c, d]]}
    return None


def _law_galois_adjunction(rng):
    """pat and comp between degrees l < n form a Galois connection:
    pat(comp(S)) <= S and T <= comp(pat(T)), so comp pat comp = comp and
    pat comp pat = pat.  The independent side is the random sets S and T,
    which neither operator built; a ``comp_set`` that loses words breaks
    T <= comp(pat(T))."""
    for _ in range(12):
        l = rng.randint(2, 5)
        n = rng.randint(l + 1, 7)
        s = _random_word_set(rng, l, 6)
        t = _random_word_set(rng, n, 6)
        comp_s = comp_set(s, n)
        if not pat_set(comp_s, l).word_set <= s.word_set:
            return {"kind": "kernel", "l": l, "n": n}
        if not t.word_set <= comp_set(pat_set(t, l), n).word_set:
            return {"kind": "closure", "l": l, "n": n}
        if comp_set(pat_set(comp_s, l), n) != comp_s:
            return {"kind": "comp-idempotent", "l": l, "n": n}
        pt = pat_set(t, l)
        if pat_set(comp_set(pt, n), l) != pt:
            return {"kind": "pat-idempotent", "l": l, "n": n}
    return None


def _law_galois_monotone(rng):
    """Both operators keep inclusion: S <= S' gives comp(S) <= comp(S'), and
    T <= T' gives pat(T) <= pat(T').  The independent side is the inclusion
    of the inputs, made here by a union that neither operator computes.  It
    sees an operator that turns inclusions around, such as the complement of
    the level, but not a wrong level that keeps them (an empty one);
    ``law-comp-direct-agreement`` checks the level itself."""
    for _ in range(12):
        l = rng.randint(2, 5)
        n = rng.randint(l + 1, 7)
        s_small = _random_word_set(rng, l, 4)
        extra = _random_word_set(rng, l, 3)
        s_big = PermSet(l, s_small.word_set | extra.word_set)
        if not comp_set(s_small, n).word_set <= comp_set(s_big, n).word_set:
            return {"kind": "comp", "l": l, "n": n}
        t_small = _random_word_set(rng, n, 4)
        t_big = PermSet(n, t_small.word_set | _random_word_set(rng, n, 3).word_set)
        if not pat_set(t_small, l).word_set <= pat_set(t_big, l).word_set:
            return {"kind": "pat", "l": l, "n": n}
    return None


def _law_galois_transitive(rng):
    """comp from degree l to n equals comp to m and then from m to n.  The
    independent side is the one call from l to n against the two calls
    chained.  Both walk the same level steps, so a wrong step is not seen
    here; a ``comp_set`` whose result is not the top of its own walk is,
    such as one returning the complement of the level."""
    for _ in range(12):
        l = rng.randint(2, 4)
        m = rng.randint(l + 1, 6)
        n = rng.randint(m + 1, 7)
        s = _random_word_set(rng, l, 6)
        if comp_set(comp_set(s, m), n) != comp_set(s, n):
            return {"l": l, "m": m, "n": n}
    return None


def _law_descending_lift(_):
    """A subgroup G of S_5 holds the reversal exactly when its levels at
    degrees 6 and 7 hold the reversal of their degree, since every pattern
    of a decreasing word is decreasing.  The independent side is the
    membership of ``descending(5)`` in G's words, against membership in the
    brute-force level."""
    for g in enumerate_subgroups(5):
        has = descending(5).word in g.word_set
        for m in (6, 7):
            if (descending(m).word in comp_set(g, m).word_set) != has:
                return {"group": describe_group(g), "m": m}
    return None


def _law_cycle_lift(_):
    """A subgroup G of S_5 contains the natural cyclic group C_5 exactly
    when its level at degree 6 contains C_6, and D_5 exactly when it
    contains D_6.  The independent side is the named groups, closed from
    their generators, tested for containment in G and in the brute-force
    level."""
    c5, d5 = natural_cyclic_group(5), natural_dihedral_group(5)
    c6, d6 = natural_cyclic_group(6), natural_dihedral_group(6)
    for g in enumerate_subgroups(5):
        comp6 = comp_set(g, 6).word_set
        if (c5.word_set <= g.word_set) != (c6.word_set <= comp6):
            return {"group": describe_group(g), "family": "cyclic"}
        if (d5.word_set <= g.word_set) != (d6.word_set <= comp6):
            return {"group": describe_group(g), "family": "dihedral"}
    return None


def _law_comp_direct_agreement(rng):
    """comp(S) at degree m is every permutation of degree m whose length-l
    patterns all lie in S.  The independent side is that definition as an
    exhaustive filter of S_m through ``all_patterns``, against the level
    steps of ``comp_set``."""
    for _ in range(8):
        l = rng.randint(2, 3)
        m = rng.randint(l + 1, 6)
        s = _random_word_set(rng, l, 5)
        direct = {
            w
            for w in map(bytes, itertools.permutations(range(1, m + 1)))
            if all(p.word in s.word_set for p in perms_mod.all_patterns(Perm(w), l))
        }
        if comp_set(s, m).word_set != direct:
            return {"l": l, "m": m, "set": [str(Perm(w)) for w in sorted(s.word_set)]}
    return None


# each suite takes its seeded rng and returns a counterexample or None; the
# signature is stated once, here
_LAW_SUITES: tuple[tuple[str, str, Callable[[random.Random], dict | None]], ...] = (
    ("law-product-containment", "random deg<=7", _law_product_containment),
    ("law-involvement-partial-order", "random deg<=7", _law_partial_order),
    ("law-pattern-interpolation", "random deg<=7", _law_interpolation),
    ("law-jump-characterization", "exhaustive deg<=7", _law_jump_characterization),
    ("law-dihedral-consecutive", "exhaustive deg<=7", _law_dihedral_criterion),
    ("law-parity-deletion", "exhaustive deg<=7", _law_parity_deletion),
    ("law-symmetry-involvement", "random deg<=7", _law_symmetry_involvement),
    ("law-adjacent-quotient-cycle", "exhaustive deg<=6", _law_adjacent_quotient),
    ("law-cycle-prefix-generation", "exhaustive 1<m<n<=7", _law_cycle_prefix_generation),
    ("law-young-join-generation", "exhaustive deg<=5", _law_young_join),
    ("law-orbit-minimality", "exhaustive subgroups deg<=5", _law_orbit_minimality),
    ("law-lagrange", "exhaustive subgroups deg<=4", _law_lagrange),
    ("law-block-system-soundness", "subgroups deg<=5 + named deg 6", _law_block_system_soundness),
    ("law-derived-meet-form", "exhaustive partitions n<=8", _law_derive_meet_form),
    ("law-derived-shape", "exhaustive partitions n<=8", _law_derive_shape),
    ("law-derived-reversal-symmetry", "exhaustive partitions n<=8", _law_derive_reversal),
    ("law-measure-decrement", "exhaustive partitions n<=8", _law_measure_decrement),
    ("law-interwoven-disjoint", "exhaustive partitions n<=8", _law_interwoven_disjoint),
    ("law-galois-adjunction", "random l<=5 n<=7", _law_galois_adjunction),
    ("law-galois-monotonicity", "random l<=5 n<=7", _law_galois_monotone),
    ("law-galois-transitivity", "random l<m<n<=7", _law_galois_transitive),
    ("law-descending-lift", "exhaustive subgroups deg 5", _law_descending_lift),
    ("law-cyclic-dihedral-lift", "exhaustive subgroups deg 5", _law_cycle_lift),
    ("law-comp-direct-agreement", "random l<=3 m<=6", _law_comp_direct_agreement),
)


def verify_laws(seed: int = 0) -> list[Report]:
    """Run every structural law suite with a deterministic seed."""
    reports = []
    for check_id, scope, fn in _LAW_SUITES:
        rng = random.Random(f"{seed}:{check_id}")
        reports.append(_run_check(check_id, f"{scope} seed={seed}", lambda f=fn, r=rng: f(r)))
    reports.sort(key=lambda r: (r.check_id, r.scope))
    return reports
