import itertools
import json
import random
import sys

import pytest

import permpat as pp
from permpat import galois as galois_mod
from permpat import groups as groups_mod
from permpat import partitions as parts
from permpat import perms as perms_mod
from permpat import verify as verify_mod
from permpat.cli import main
from permpat.verify import _family_candidates


def test_verify_prediction_passes():
    assert pp.verify_prediction(pp.alternating_group(5), 2).status == "pass"
    table_row = pp.parse_group("gens:6:(1 2 3 4 5);(3 4 5 6)")
    report = pp.verify_prediction(table_row, 1)
    assert report.status == "pass"
    assert pp.verify_prediction(pp.symmetric_group(4), 3).status == "pass"


def test_verify_prediction_skips_on_cap():
    # S5 (120 words) is compared, S6 (720) passes the cap
    report = pp.verify_prediction(pp.symmetric_group(4), 3, element_cap=200)
    assert report.status == "skipped"
    assert "degree 6" in report.counterexample["reason"]


def test_verify_prediction_fails_below_cap(monkeypatch):
    # a wrong level under the cap is reported as a failure, not as a skip
    real = verify_mod.predict_level

    def wrong(g, i, **kwargs):
        return real(g, i, **kwargs)._replace(exact=pp.trivial_group(g.degree + i))

    monkeypatch.setattr(verify_mod, "predict_level", wrong)
    report = pp.verify_prediction(pp.symmetric_group(4), 3, element_cap=200)
    assert report.status == "fail"
    assert report.counterexample["level"] == 1


def test_verify_prediction_checks_a_named_level_by_order(monkeypatch):
    # the level above S_n is named, not built, and a level short of m! words
    # fails its order check: a failure, not a skip
    real = verify_mod.iter_levels

    def short(*args, **kwargs):
        for k, words in real(*args, **kwargs):
            yield k, words - {max(words)}

    monkeypatch.setattr(verify_mod, "iter_levels", short)
    report = pp.verify_prediction(pp.symmetric_group(4), 2)
    assert report.status == "fail"
    cx = report.counterexample
    assert (cx["level"], cx["mode"]) == (1, "exact")
    assert cx["expected"]["size"] == 120 and cx["actual"]["size"] == 119
    assert cx["expected"]["members"][:2] == ["12345", "12354"]


def test_no_symmetric_group_is_built_for_a_prediction(monkeypatch, capsys):
    # the levels above S_n are named by their degree: a catalog pass and
    # `levels` build no S_m above the degree of the groups they start from
    built = []
    for name, mod in list(sys.modules.items()):
        real = getattr(mod, "symmetric_group", None)
        if name.split(".")[0] == "permpat" and real is not None:

            def record(n, *args, real=real, **kwargs):
                built.append(n)
                return real(n, *args, **kwargs)

            monkeypatch.setattr(mod, "symmetric_group", record)
    reports = pp.verify_catalog(4, 4)
    assert all(r.status == "pass" for r in reports)
    assert all(n <= 4 for n in built), built
    built.clear()
    assert main(["levels", "--group", "S:6", "--depth", "1"]) == 0
    assert capsys.readouterr().out == "level 7: size 5040 [eventual family]\n"
    assert built == [6]


def test_verify_catalog_small():
    reports = pp.verify_catalog(2, depth=2)
    assert len(reports) == 4 and all(r.status == "pass" for r in reports)
    reports = pp.verify_catalog(3, depth=2)
    assert len(reports) == 12  # six subgroups, prediction + onset each
    assert all(r.status == "pass" for r in reports)
    reports = pp.verify_catalog(4, depth=2)
    assert len(reports) == 60
    assert all(r.status == "pass" for r in reports)


def test_orbits_are_computed_once_per_group(monkeypatch):
    asked, computed = [], []
    orbits, orbit_partition = groups_mod.PermGroup.orbits, groups_mod._orbit_partition

    def counting_orbits(self):
        asked.append(self)  # keeps every group alive, so no id is reused
        return orbits(self)

    def counting_orbit_partition(n, gens):
        computed.append(gens)
        return orbit_partition(n, gens)

    monkeypatch.setattr(groups_mod.PermGroup, "orbits", counting_orbits)
    monkeypatch.setattr(groups_mod, "_orbit_partition", counting_orbit_partition)
    assert all(r.status == "pass" for r in pp.verify_catalog(4, 2))
    groups = {id(g) for g in asked}
    assert len(computed) == len(groups)
    assert len(asked) > 2 * len(groups)  # the classifier asks each group again and again


def test_verify_catalog_uses_the_element_cap():
    # the S5 level above S3 passes a cap of 100 words
    reports = pp.verify_catalog(3, depth=3, element_cap=100)
    skipped = [r for r in reports if r.status == "skipped"]
    assert skipped and all(
        r.counterexample["reason"] == "level of degree 5: 120 words exceed the element cap 100"
        for r in skipped
    )
    assert any(r.status == "pass" for r in reports)


def test_verify_laws_all_pass_at_another_seed():
    assert all(r.status == "pass" for r in pp.verify_laws(seed=1))


def _all_partitions_reference(n):
    out = [[[1]]]
    for x in range(2, n + 1):
        nxt = []
        for p in out:
            for i in range(len(p)):
                nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(p)])
            nxt.append([list(b) for b in p] + [[x]])
        out = nxt
    return [parts.Partition.from_blocks(p) for p in out] if n else []


def test_all_partitions_keeps_its_order():
    # the law suites walk this order, so it fixes their first counterexamples
    for n in range(9):
        assert verify_mod._all_partitions(n) == tuple(_all_partitions_reference(n))
    assert len(verify_mod._all_partitions(8)) == 4140
    assert verify_mod._all_partitions(5) is verify_mod._all_partitions(5)


def test_verify_laws_enumerates_each_catalog_once(monkeypatch, fresh_catalog):
    # perfbench's tracer counts groups.subgroups_found from each enumerate_subgroups
    # result verify gets, so verify keeps all nine calls (726 groups) while
    # the memo in groups runs the real enumeration once per degree
    enumerated, returned = [], []
    real_words, real_enumerate = groups_mod._prime_power_order_words, verify_mod.enumerate_subgroups

    def counting_words(n):
        enumerated.append(n)
        return real_words(n)

    def counting_enumerate(n):
        subgroups = real_enumerate(n)
        returned.append((n, len(subgroups)))
        return subgroups

    monkeypatch.setattr(groups_mod, "_prime_power_order_words", counting_words)
    monkeypatch.setattr(verify_mod, "enumerate_subgroups", counting_enumerate)
    assert all(r.status == "pass" for r in pp.verify_laws(seed=0))
    assert len(returned) == 9
    assert sum(k for _, k in returned) == 726
    assert dict(returned) == {3: 6, 4: 30, 5: 156}
    assert enumerated == [3, 4, 5]


def _run_law_suite(check_id):
    # one suite alone, with the rng verify_laws seeds it with at seed 0
    suites = {cid: (scope, fn) for cid, scope, fn in verify_mod._LAW_SUITES}
    scope, suite = suites[check_id]
    rng = random.Random(f"0:{check_id}")
    return verify_mod._run_check(check_id, scope, lambda: suite(rng))


def test_tampered_compose_is_caught(monkeypatch):
    # a deliberately broken composition must surface as a law failure with a
    # counterexample payload
    def broken_compose(f, g):
        word = list(perms_mod._compose_words(f.word, g.word))
        if len(word) >= 3:
            word[0], word[1] = word[1], word[0]
        return perms_mod.Perm(word)

    monkeypatch.setattr(perms_mod, "compose", broken_compose)
    report = _run_law_suite("law-product-containment")
    assert report.status == "fail"
    assert report.counterexample is not None


def _empty_comp(s, n, **kwargs):
    return pp.PermSet(n, set())


def _every_word(n):
    return set(map(bytes, itertools.permutations(range(1, n + 1))))


def _complement_comp(s, n, **kwargs):
    # every degree-n word outside the true level: inclusions turn around
    level = galois_mod.comp_set(s, n, **kwargs).word_set
    return pp.PermSet(n, _every_word(n) - level)


def _complement_pat(t, length):
    # every length-l word outside the true patterns: inclusions turn around
    return pp.PermSet(length, _every_word(length) - galois_mod.pat_set(t, length).word_set)


def _comp_of_nothing_is_everything(s, n, **kwargs):
    # an empty set read as no constraint at all: comp(pat(comp(S))) is S_n
    # wherever comp(S) is empty
    if not s.word_set:
        return pp.PermSet(n, _every_word(n))
    return galois_mod.comp_set(s, n, **kwargs)


def _pat_of_the_first_six(t, length):
    # the patterns of at most six words of t, all that a random set holds,
    # but not all of a larger level
    return galois_mod.pat_set(pp.PermSet(t.degree, sorted(t.word_set)[:6]), length)


def _involves_as_a_factor(tau, pi):
    # occurrences at consecutive positions only: reversal and complement
    # keep them, inversion does not
    k = tau.degree
    return any(
        perms_mod.pattern(pi, range(i, i + k)) == tau for i in range(1, pi.degree - k + 2)
    )


_true_quotient = perms_mod.adjacent_pattern_quotient
_true_enumerate = verify_mod.enumerate_subgroups
_true_derive = parts.derive
_true_jumps = perms_mod.jumps
_true_dihedral = verify_mod.natural_dihedral_group


def _with_a_five_word_set(n):
    # five words: no group, and an order that divides neither 3! nor 4!
    words = map(bytes, itertools.islice(itertools.permutations(range(1, n + 1)), 5))
    return _true_enumerate(n) + [pp.PermGroup(n, (), words)]


def _derive_to_one_block_pair(p):
    # 1,2|3|...|n+1 for every p: symmetric under reversal only at n = 1
    return parts.Partition.from_blocks([[1, 2], *([x] for x in range(3, p.size + 2))])


def _derive_wrong_off_intervals(p):
    # the true derivative on interval partitions; elsewhere p with n+1 as a
    # block of its own, which is no interval partition when p is none
    if parts.is_interval_partition(p):
        return _true_derive(p)
    return parts.Partition(p.size + 1, (*p.blocks, (p.size + 1,)))


_TAMPERS = [
    # involvement against word equality and a pattern's own patterns
    (perms_mod, "involves", lambda tau, pi: False, "law-involvement-partial-order",
     {"reflexivity": "3264715"}),
    (perms_mod, "involves", lambda tau, pi: True, "law-involvement-partial-order",
     {"antisymmetry": ["1537264", "3264715"]}),
    (perms_mod, "involves", lambda tau, pi: tau == pi, "law-involvement-partial-order",
     {"transitivity": ["21", "325461", "3264715"]}),
    (perms_mod, "involves", lambda tau, pi: tau == pi, "law-pattern-interpolation",
     {"sigma": "1", "tau": "1423", "m": 2}),
    # exhaustive permutations
    (perms_mod, "parity", lambda p: "even", "law-parity-deletion", {"perm": "21"}),
    # partitions
    (parts, "is_interval_partition", lambda p: False, "law-derived-shape",
     {"partition": "1", "derived": "1,2"}),
    (parts, "mu", lambda p: 0, "law-measure-decrement", {"partition": "1", "mu": [0, 0]}),
    (parts, "meet", lambda p, q: p, "law-derived-meet-form", {"partition": "1|2"}),
    (parts, "derive", _derive_to_one_block_pair, "law-derived-reversal-symmetry",
     {"partition": "1,2", "derived": "1,2|3"}),
    # subgroup catalogs
    (verify_mod, "young_subgroup", lambda p, *args: pp.trivial_group(p.size),
     "law-orbit-minimality", {"group": "gens:3:(2 3)", "orbits": "1|2,3"}),
    (parts, "refines", lambda p, q: True, "law-orbit-minimality",
     {"group": "gens:3:", "finer": "1,2,3"}),
    (verify_mod, "enumerate_subgroups", _with_a_five_word_set, "law-lagrange",
     {"group": "gens:3:", "order": 5}),
    # Galois operators
    (verify_mod, "comp_set", lambda s, n, **kwargs: pp.PermSet(n, _every_word(n)),
     "law-galois-adjunction", {"kind": "kernel", "l": 4, "n": 5}),
    (verify_mod, "comp_set", _empty_comp, "law-galois-adjunction",
     {"kind": "closure", "l": 4, "n": 5}),
    (verify_mod, "comp_set", _comp_of_nothing_is_everything, "law-galois-adjunction",
     {"kind": "comp-idempotent", "l": 4, "n": 5}),
    (verify_mod, "pat_set", _pat_of_the_first_six, "law-galois-adjunction",
     {"kind": "pat-idempotent", "l": 4, "n": 5}),
    (verify_mod, "comp_set", _empty_comp, "law-descending-lift",
     {"group": "gens:5:(1 5)(2 4)", "m": 6}),
    (verify_mod, "comp_set", _empty_comp, "law-cyclic-dihedral-lift",
     {"group": "gens:5:(1 2 3 4 5)", "family": "cyclic"}),
    (verify_mod, "natural_dihedral_group",
     lambda n: pp.natural_cyclic_group(n) if n == 6 else _true_dihedral(n),
     "law-cyclic-dihedral-lift", {"group": "gens:5:(1 2 3 4 5)", "family": "dihedral"}),
    (verify_mod, "comp_set", _empty_comp, "law-comp-direct-agreement",
     {"l": 2, "m": 4, "set": ["12", "21"]}),
    # the level step itself, under comp_set: law-galois-transitivity and
    # law-galois-monotonicity cannot see an empty step, since both of their
    # sides walk the same steps and an empty level keeps every inclusion
    (galois_mod, "_comp_step", lambda words, k, *args: frozenset(), "law-comp-direct-agreement",
     {"l": 2, "m": 4, "set": ["12", "21"]}),
    (verify_mod, "comp_set", _complement_comp, "law-galois-monotonicity",
     {"kind": "comp", "l": 3, "n": 6}),
    (verify_mod, "pat_set", _complement_pat, "law-galois-monotonicity",
     {"kind": "pat", "l": 5, "n": 6}),
    (verify_mod, "comp_set", _complement_comp, "law-galois-transitivity",
     {"l": 3, "m": 5, "n": 6}),
    # Young subgroups against the block-fixing filter
    (verify_mod, "young_subgroup", lambda p, *args: pp.trivial_group(p.size),
     "law-young-join-generation", {"partition": "1,2"}),
    # the join against the closure of both Young subgroups
    (parts, "join", lambda p, q: p, "law-young-join-generation",
     {"p": "1,2|3", "q": "1,3|2"}),
    # interwoven intervals against their disjointness
    (parts, "interwoven", lambda p, a, b: True, "law-interwoven-disjoint",
     {"partition": "1,2,3", "intervals": [[1, 2], [1, 3]]}),
    # block systems against the exhaustive filter of invariant partitions
    (groups_mod.PermGroup, "block_systems", lambda self: [], "law-block-system-soundness",
     {"group": "gens:4:(1 4)(2 3);(1 2)(3 4)", "primitive": True}),
    (groups_mod.PermGroup, "block_systems",
     lambda self: [pp.Partition.from_blocks([x] for x in range(1, self.degree + 1))],
     "law-block-system-soundness", {"group": "gens:4:(1 4)(2 3);(1 2)(3 4)", "system": "1|2|3|4"}),
    # jumps, the dihedral test and the quotient cycle against families and
    # cycles written out from the words alone
    (perms_mod, "jumps", lambda p: (), "law-jump-characterization",
     {"perm": "132", "jumps": 0, "expected_zero": False}),
    (perms_mod, "jumps", lambda p: _true_jumps(p) * 2, "law-jump-characterization",
     {"perm": "132", "jumps": 2, "expected_one": True}),
    (verify_mod, "natural_dihedral_group", pp.natural_cyclic_group, "law-dihedral-consecutive",
     {"perm": "132", "n": 3}),
    (perms_mod, "adjacent_pattern_quotient", lambda p, i: pp.inverse(_true_quotient(p, i)),
     "law-adjacent-quotient-cycle", {"perm": "1423", "i": 1, "gamma": "312"}),
    # the cycle and a prefix cycle against the order their parities give
    (verify_mod, "natural_cycle", pp.ascending, "law-cycle-prefix-generation",
     {"n": 3, "m": 2, "order": 2}),
    # symmetries that keep involvement against the position map of patterns
    (perms_mod, "inverse", lambda p: p, "law-symmetry-involvement",
     {"pi": "2413", "positions": [1, 4]}),
    (perms_mod, "reverse", lambda p: p, "law-symmetry-involvement",
     {"pi": "2413", "positions": [1, 4]}),
    (perms_mod, "complement", lambda p: p, "law-symmetry-involvement",
     {"pi": "2413", "positions": [1, 4]}),
    (perms_mod, "involves", _involves_as_a_factor, "law-symmetry-involvement",
     {"tau": "312", "pi": "6532471", "op": "inverse"}),
    # derive(p) itself is checked, not derive(max_intervals(p)), which the
    # memos could stand in for: the first partition of no intervals is 1,3|2
    (parts, "derive", _derive_wrong_off_intervals, "law-derived-meet-form",
     {"partition": "1,3|2"}),
    (parts, "derive", _derive_wrong_off_intervals, "law-derived-shape",
     {"partition": "1,3|2", "derived": "1,3|2|4"}),
    (parts, "has_consecutive_nontrivial_blocks", lambda p: True, "law-derived-shape",
     {"partition": "1", "derived": "1,2"}),
]


@pytest.mark.parametrize("module, name, tampered, check_id, counterexample", _TAMPERS)
def test_tampered_library_fails_its_law_suite(
    monkeypatch, module, name, tampered, check_id, counterexample
):
    monkeypatch.setattr(module, name, tampered)
    report = _run_law_suite(check_id)
    assert report.status == "fail"
    assert json.loads(json.dumps(report.counterexample)) == counterexample


def test_every_law_suite_has_a_tamper():
    ids = [check_id for check_id, _, _ in verify_mod._LAW_SUITES]
    # law-product-containment's tamper is test_tampered_compose_is_caught
    tampered = {row[3] for row in _TAMPERS} | {"law-product-containment"}
    assert len(ids) == len(set(ids))
    assert set(ids) == tampered


@pytest.mark.parametrize(
    "check_id, name, calls",
    [
        # one meet per distinct maximal-interval partition m: the 2^(n-1)
        # interval partitions of n = 1..8 points
        ("law-derived-meet-form", "meet", 255),
        # the predicates once per distinct derived partition
        ("law-derived-shape", "is_interval_partition", 149),
    ],
)
def test_partition_suites_check_each_distinct_partition_once(
    monkeypatch, check_id, name, calls
):
    # 5295 partitions of 1..8 points are walked; each suite builds its
    # other side once per distinct partition it depends on, in a memo that
    # lives for one call, so a second call counts as many again
    counted = []
    real = getattr(parts, name)

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(parts, name, counting)
    assert _run_law_suite(check_id).status == "pass"
    assert len(counted) == calls
    assert _run_law_suite(check_id).status == "pass"
    assert len(counted) == 2 * calls


def test_young_join_closes_each_unordered_pair_once(monkeypatch):
    # 74 Young subgroups of degree 2..5, each closed once, and 1516 joins:
    # the 1442 unordered pairs of distinct partitions and the 74 pairs p = q,
    # each S_q's generators extending S_p; a second run counts as many again,
    # so nothing is kept between runs
    closures, joins = [], []
    real_closure = groups_mod.PermGroup.closure.__func__
    real_join = parts.join

    def counting_closure(cls, generators, degree, *args):
        closures.append(degree)
        return real_closure(cls, generators, degree, *args)

    def counting_join(p, q):
        joins.append((p, q))
        return real_join(p, q)

    monkeypatch.setattr(groups_mod.PermGroup, "closure", classmethod(counting_closure))
    monkeypatch.setattr(parts, "join", counting_join)
    for runs in (1, 2):
        assert _run_law_suite("law-young-join-generation").status == "pass"
        assert (len(closures), len(joins)) == (74 * runs, 1516 * runs)


def test_block_fixing_filter_matches_its_definition():
    # the translate by the label table against the per-point definition: w
    # maps every block onto itself when each point keeps its block's label
    for n in range(2, 6):
        words = list(map(bytes, itertools.permutations(range(1, n + 1))))
        for p in verify_mod._all_partitions(n):
            label = p.block_index
            fixing = {w for w in words if all(label[w[x - 1]] == label[x] for x in label)}
            assert parts._block_fixing(p, words) == fixing


def test_eventual_onset():
    fams, m = pp.eventual_onset(pp.natural_cyclic_group(5), 2)
    assert m == 0 and any(f.kind == "cyclic" for f in fams)

    fams, m = pp.eventual_onset(pp.alternating_group(5), 3)
    assert m == 2
    assert any(f.kind == "cyclic" and f.with_descending for f in fams)

    # two end blocks around a middle block of size three: the middle must be
    # ground away one element per level, so the family is reached at level 2
    pi = pp.parse_partition("1,2|3,4,5|6,7")
    g = pp.young_subgroup(pi)
    assert pp.mu(pi) == 3
    fams, m = pp.eventual_onset(g, 3)
    assert m == pp.mu(pi) - 1 == 2
    assert any((f.kind, f.a, f.b) == ("sab", 2, 2) for f in fams)

    # a block-fixing group that already is an end-blocks group sits in its
    # family from the start
    fams, m = pp.eventual_onset(pp.parse_group("SPi:1,2,3|4,5,6"), 2)
    assert m == 0
    assert any((f.kind, f.a, f.b) == ("sab", 3, 3) for f in fams)


def test_eventual_onset_not_found():
    fams, m = pp.eventual_onset(pp.alternating_group(5), 1)
    assert m is None and fams == []


def test_eventual_onset_reports_the_degree_limit():
    with pytest.raises(pp.CapExceeded, match="degree 17"):
        pp.eventual_onset(pp.natural_cyclic_group(5), 12)


def test_verify_group_onset_past_degree_11():
    # the onset walk above this degree-6 group reaches degree 12
    reports = pp.verify_group(pp.parse_group("gens:6:(1 2 3 4 5)"), 1)
    assert [(r.check_id, r.status) for r in reports] == [
        ("prediction", "pass"),
        ("onset", "pass"),
    ]


def test_family_candidates_disambiguation():
    # degree 3 full symmetric group also looks dihedral; both must be offered
    cands = _family_candidates(pp.symmetric_group(3))
    kinds = {(f.kind, f.with_descending) for f in cands}
    assert ("symmetric", False) in kinds
    assert ("cyclic", True) in kinds


def test_random_groups_beyond_catalog_degrees():
    # seeded spot-check of the closed forms at degrees the exhaustive
    # catalogs do not reach
    import random

    rng = random.Random(424242)

    def random_cycle_perm(degree):
        pts = rng.sample(range(1, degree + 1), rng.randint(2, 4))
        return pp.parse_perm("(" + " ".join(map(str, pts)) + ")", degree).word

    for degree, goal in ((7, 12), (8, 6)):
        done = 0
        while done < goal:
            gens = [random_cycle_perm(degree) for _ in range(rng.randint(1, 3))]
            g = pp.PermGroup.closure(gens, degree)
            if g.order > 5000:
                continue
            done += 1
            for r in pp.verify_group(g, depth=2):
                assert r.status != "fail", (r.scope, r.counterexample)


def test_report_json_shape():
    report = pp.verify_prediction(pp.natural_cyclic_group(4), 1)
    payload = report.to_json()
    assert payload["check_id"] == "prediction"
    assert payload["status"] == "pass"
    assert "counterexample" not in payload
    assert isinstance(payload["elapsed_ms"], int)
