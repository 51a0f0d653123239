import ast
import hashlib
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import permpat as pp
from permpat import ClassKind, PermGroup
from permpat.classify import Classification, EventualFamily, _alternating_next_group
from permpat.galois import iter_levels
from permpat.groups import describe_group
from permpat.perms import _compose_words
from permpat.verify import _compare_level


def _oracle(g, m):
    """The brute-force level of ``g`` at degree ``m``, checked to be a group."""
    return PermGroup.from_words(pp.comp_set(g, m).word_set, m)


def kinds(text):
    return pp.Classification(pp.parse_group(text)).kind


def test_classify_kind_dispatch():
    assert kinds("S:5") is ClassKind.SYMMETRIC
    assert kinds("A:5") is ClassKind.ALTERNATING
    assert kinds("T:4") is ClassKind.TRIVIAL
    assert kinds("Desc:4") is ClassKind.DESC_ONLY
    assert kinds("D:6") is ClassKind.CONTAINS_NATURAL_CYCLE
    assert kinds("C:6") is ClassKind.CONTAINS_NATURAL_CYCLE
    assert kinds("SPi:1,2|3,4") is ClassKind.INTRANSITIVE
    assert kinds("AutPi:1,2|3,4") is ClassKind.IMPRIMITIVE
    assert kinds("gens:6:(1 2 3 4);(3 4 5 6)") is ClassKind.PRIMITIVE
    # the earlier tag wins: these contain the natural cycle but are S/A first
    assert kinds("S:3") is ClassKind.SYMMETRIC
    assert kinds("A:3") is ClassKind.ALTERNATING
    # S_1 is the trivial group: its levels are every S_m
    assert pp.Classification(pp.trivial_group(1)).kind is ClassKind.SYMMETRIC


def test_dispatch_total_on_degree4_catalog():
    for g in pp.enumerate_subgroups(4):
        assert pp.Classification(g).kind in ClassKind


def test_predict_symmetric_trivial_desc():
    # the level above S_4 is S_5, named by its degree and checked by order
    pred = pp.predict_level(pp.symmetric_group(4), 1)
    assert pred[:4] == (5, None, None, None)
    assert pred.eventual == EventualFamily("symmetric")
    assert pred.citation == "comp-symmetric-step"
    assert _compare_level(pred, pp.comp_set(pp.symmetric_group(4), 5).word_set, 1) is None
    assert pp.predict_level(pp.trivial_group(3), 1).exact == pp.trivial_group(4)
    assert pp.predict_level(pp.descending_group(4), 1).exact == pp.descending_group(5)
    assert pp.predict_level(pp.descending_group(4), 3).exact == pp.descending_group(7)


def test_predict_natural_cycle():
    assert pp.predict_level(pp.natural_dihedral_group(8), 1).exact == pp.natural_dihedral_group(9)
    assert pp.predict_level(pp.natural_cyclic_group(6), 1).exact == pp.natural_cyclic_group(7)
    f20 = pp.parse_group("gens:5:(1 2 3 4 5);(2 3 5 4)")
    assert pp.Classification(f20).kind is ClassKind.CONTAINS_NATURAL_CYCLE
    assert pp.predict_level(f20, 1).exact == pp.natural_dihedral_group(6)


def test_predict_alternating_next_level():
    pred = pp.predict_level(pp.alternating_group(5), 1)
    assert pred.exact is not None and pred.exact.order == 36
    assert pred.exact == _oracle(pp.alternating_group(5), 6)
    # the predicted group's shorter patterns generate within the alternating group
    pats = pp.pat_set(pred.exact, 5)
    assert PermGroup.closure(sorted(pats.word_set), 5).is_subgroup_of(pp.alternating_group(5))


def test_predict_alternating_second_level():
    assert pp.predict_level(pp.alternating_group(6), 2).exact == pp.trivial_group(8)
    assert pp.predict_level(pp.alternating_group(7), 2).exact == pp.natural_cyclic_group(9)
    assert pp.predict_level(pp.alternating_group(5), 2).exact == pp.natural_dihedral_group(7)
    assert pp.predict_level(pp.alternating_group(4), 2).exact == pp.descending_group(6)
    assert pp.predict_level(pp.alternating_group(5), 4).exact == pp.natural_dihedral_group(9)


def test_predict_young_subgroup():
    # same interleaved-blocks structure as the 14-point worked example, scaled
    # to fit the element cap
    pi = pp.parse_partition("1,2,5|3,4,7|6")
    g = pp.young_subgroup(pi)
    pred = pp.predict_level(g, 1)
    assert pred.exact == pp.young_subgroup(pp.derive(pi))
    assert pred.exact == _oracle(g, 8)
    two = pp.predict_level(g, 2)
    assert two.exact == pp.young_subgroup(pp.derive_iter(pi, 2))


def test_predict_worked_partition_shape():
    # the 14-point worked example: its group exceeds the element cap, but the
    # predicted level is determined by the partition derivative alone
    pi = pp.parse_partition("1,2,3,7,8,9,10|4,5,6,12,13,14|11")
    assert pp.derive(pi) == pp.parse_partition("1,2,3|4|5,6|7|8,9,10|11|12|13,14,15")
    with pytest.raises(pp.CapExceeded):
        pp.young_subgroup(pi)


def test_library_level_past_the_degree_limit_names_degree_17():
    # the first degree past the cap, as the CLI and iter_levels name it, not
    # the degree 20 of the level asked for
    c = Classification(pp.parse_group("C:10"))
    with pytest.raises(pp.CapExceeded, match=r"^level degree 17 exceeds the cap 16$"):
        c.level(10)


@pytest.mark.parametrize(
    "text, cite, calls",
    [
        # V4 is imprimitive; its sandwich reads the family and the systems
        (
            "gens:4:(1 2)(3 4);(1 3)(2 4)",
            "comp-imprimitive-sandwich",
            {"block_systems": 1, "largest_ab": 1},
        ),
        ("gens:4:(1 2 3)", "comp-orbit-sandwich", {"largest_ab": 1}),
    ],
)
def test_rules_take_what_the_dispatch_found(monkeypatch, text, cite, calls):
    g = pp.parse_group(text)
    counted = Counter()
    for name in ("block_systems", "largest_ab"):
        real = getattr(PermGroup, name)

        def counting(self, real=real, name=name):
            counted[name] += 1
            return real(self)

        monkeypatch.setattr(PermGroup, name, counting)
    assert Classification(g).level(1).citation == cite
    assert counted == calls


def test_predict_young_with_reversal():
    # a reversal-symmetric interval partition whose middle blocks are split
    g = pp.parse_group("SPiDesc:1,2|3|4|5,6")
    assert pp.Classification(g).kind is pp.ClassKind.INTRANSITIVE
    pred = pp.predict_level(g, 1)
    assert pred.exact == _oracle(g, 7)
    assert pred.exact == pp.young_with_reversal(pp.parse_partition("1,2|3|4|5|6,7"))


def test_predict_reversal_coset_of_young_subgroup():
    # adding the reversal to a block-fixing group can collapse to another
    # block-fixing group; the classifier must still match the oracle
    g = pp.parse_group("SPiDesc:1|2,3|4")
    pred = pp.predict_level(g, 1)
    assert pred.exact == _oracle(g, 5)
    assert pred.exact == pp.descending_group(5)


def test_predict_intransitive_bounds():
    g = pp.parse_group("gens:5:(1 2 3)")  # intransitive, not block-fixing-shaped
    pred = pp.predict_level(g, 1)
    assert pred.exact is None
    oracle = _oracle(g, 6)
    assert pred.lower.is_subgroup_of(oracle)
    assert oracle.is_subgroup_of(pred.upper)


def test_predict_imprimitive_exact():
    g = pp.parse_group("AutPi:1,2|3,4|5,6")
    pred = pp.predict_level(g, 1)
    assert pred.exact == _oracle(g, 7)
    two = pp.predict_level(g, 2)
    assert two.exact == _oracle(g, 8)


def test_predict_imprimitive_bounds():
    klein = pp.parse_group("gens:4:(1 2)(3 4);(1 3)(2 4)")
    pred = pp.predict_level(klein, 1)
    oracle = _oracle(klein, 5)
    if pred.exact is not None:
        assert pred.exact == oracle
    else:
        assert pred.lower.is_subgroup_of(oracle)
        assert oracle.is_subgroup_of(pred.upper)


def test_predict_primitive_degree6():
    g = pp.parse_group("gens:6:(1 2 3 4 5);(1 3 4)(2 5 6)")
    pred = pp.predict_level(g, 1)
    assert pred.exact is not None
    assert sorted(str(p) for p in pred.exact) == ["1234567", "5432167"]
    assert str(pp.dja(7, 5)) == "5432167"
    two = pp.predict_level(g, 2)
    assert two.exact == _oracle(g, 8)


def test_predict_primitive_fallthrough():
    # conjugates of the affine degree-5 group that avoid the natural cycle
    for gtext in ("gens:5:(1 3 2 4 5);(1 2 4 3)", "gens:5:(2 1 3 4 5);(1 2 4 3)"):
        g = pp.parse_group(gtext)
        if pp.Classification(g).kind is not ClassKind.PRIMITIVE:
            continue
        pred = pp.predict_level(g, 1)
        assert pred.exact == _oracle(g, 6)


def test_predict_eventual():
    fam, bound = pp.predict_eventual(pp.natural_cyclic_group(7))
    assert (fam.kind, fam.with_descending, bound) == ("cyclic", False, 0)

    fam, bound = pp.predict_eventual(pp.parse_group("SPi:1,2|3,4,5"))
    assert (fam.kind, fam.a, fam.b) == ("sab", 2, 3)
    assert bound == pp.mu_ab(pp.parse_partition("1,2|3,4,5"), 2, 3)

    g = pp.parse_group("gens:6:(1 2 3 4);(3 4 5 6)")
    fam, bound = pp.predict_eventual(g)
    assert (fam.kind, fam.with_descending, fam.a, fam.b) == ("sab", True, 1, 1)
    assert bound == 2

    fam, bound = pp.predict_eventual(pp.alternating_group(5))
    assert (fam.kind, fam.with_descending, bound) == ("cyclic", True, 2)

    fam, bound = pp.predict_eventual(pp.symmetric_group(6))
    assert (fam.kind, bound) == ("symmetric", 0)


def _adjacent_conjugates(g):
    """g conjugated by each adjacent transposition (i i+1): groups of g's
    order, most of them other groups."""
    n = g.degree
    out = []
    for i in range(1, n):
        t = bytes((*range(1, i), i + 1, i, *range(i + 2, n + 1)))
        gens = [_compose_words(t, _compose_words(w, t)) for w in g.generator_words]
        out.append(PermGroup.closure(gens, n))
    return out


def test_eventual_family_matches_its_member_and_no_other_group():
    families = [EventualFamily("cyclic", d) for d in (False, True)] + [
        EventualFamily("sab", d, a, b) for d in (False, True) for a in (1, 2, 3) for b in (1, 2, 3)
    ]
    refused = 0
    for n in range(1, 9):
        for fam in families:
            member = fam.group_at(n)
            if member is None:  # a + b > n: no member, nothing matches
                assert fam.a + fam.b > n
                assert not fam.matches(pp.trivial_group(n))
                continue
            assert fam.matches(member), (fam, n)
            assert fam.matches(PermGroup.from_words(member.word_set, n)), (fam, n)
            for other in _adjacent_conjugates(member):
                assert other.order == member.order
                assert fam.matches(other) == (other == member), (fam, n, describe_group(other))
                refused += other != member
    assert refused > 0
    # one group of order 2 at degree 3, the member of the other sab family
    other = EventualFamily("sab", False, 1, 2).group_at(3)
    assert other.word_set == {b"\1\2\3", b"\1\3\2"}
    assert EventualFamily("sab", False, 2, 1).group_at(3).word_set == {b"\1\2\3", b"\2\1\3"}
    assert not EventualFamily("sab", False, 2, 1).matches(other)
    # the dihedral member at degrees 1 and 2 is the whole of S_n
    assert EventualFamily("cyclic", True).matches(pp.trivial_group(1))
    assert EventualFamily("cyclic", True).matches(pp.symmetric_group(2))
    assert not EventualFamily("cyclic", True).matches(pp.trivial_group(2))


def test_symmetric_family_matches_the_whole_group_and_no_proper_subgroup():
    fam = EventualFamily("symmetric")
    assert fam.matches(pp.symmetric_group(1))  # S_1 has no proper subgroup
    for n in range(2, 9):
        assert fam.matches(pp.symmetric_group(n))
        proper = (
            pp.enumerate_subgroups(n)[:-1]
            if n <= 5
            else [pp.alternating_group(n), pp.sab_group(n, n - 1, 1), pp.natural_dihedral_group(n)]
        )
        assert proper and not any(fam.matches(g) for g in proper), n


def test_classifier_tightness_on_catalogs_4_and_5():
    # How often the classifier answers exactly, and how close its sandwiches
    # and onset bounds come to the oracle.  Closing a sandwich may only raise
    # these counts; re-pin them when it does.
    pinned = {
        4: (
            [{"exact": 21, "sandwich": 9, "lower": 7, "upper": 3}] * 2,
            {0: 13, 1: 14, 2: 3},
        ),
        5: (
            [
                {"exact": 73, "sandwich": 83, "lower": 72, "upper": 17},
                {"exact": 73, "sandwich": 83, "lower": 76, "upper": 19},
            ],
            {0: 55, 1: 62, 2: 29, 3: 10},
        ),
    }
    for n, (levels, slack) in pinned.items():
        counts = [Counter(exact=0, sandwich=0, lower=0, upper=0) for _ in levels]
        onset_slack = Counter()
        for g in pp.enumerate_subgroups(n):
            for k, words in iter_levels(g, len(levels)):
                pred, c = pp.predict_level(g, k - n), counts[k - n - 1]
                if pred.lower is None:  # exact, or S_m named by its degree
                    c["exact"] += 1
                else:
                    c["sandwich"] += 1
                    c["lower"] += pred.lower.word_set == words
                    c["upper"] += pred.upper.word_set == words
            _, bound = pp.predict_eventual(g)
            _, observed = pp.eventual_onset(g, bound + 1)
            onset_slack[bound - observed] += 1
        assert counts == levels, n
        assert onset_slack == slack, n
    # an imprimitive group whose level-1 lower bound is the whole level
    g = pp.parse_group("gens:6:(1 4 5)(2 3 6);(5 6)")
    pred = pp.predict_level(g, 1)
    assert pred.exact is None and len(pred.lower) == 4
    assert pred.lower == pp.comp_set(g, 7)


def test_citation_census_on_catalogs_4_to_6(degree6_catalog):
    # predictions per (citation, mode) over the first two levels of every
    # group of degrees 4 and 5 and the first level of every group of degree
    # 6; a named S_m is "named".  Closing a sandwich moves counts from
    # "sandwich" to "exact"; re-pin them when it does.  No group here has an
    # interval-dihedral row (PGL(2,7) in test_cli.py does), so
    # comp-primitive-interval-dihedral counts 0.
    census = Counter()
    for groups, depth in (
        (pp.enumerate_subgroups(4), 2),
        (pp.enumerate_subgroups(5), 2),
        (degree6_catalog, 1),
    ):
        for g in groups:
            c = Classification(g)
            for i in range(1, depth + 1):
                pred = c.level(i)
                if pred.exact is not None:
                    mode = "exact"
                else:
                    mode = "named" if pred.lower is None else "sandwich"
                census[pred.citation, mode] += 1
    assert census == {
        ("comp-orbit-sandwich", "sandwich"): 1149,
        ("comp-young-derivative", "exact"): 327,
        ("comp-imprimitive-sandwich", "sandwich"): 241,
        ("comp-primitive-reversal-cap", "exact"): 36,
        ("comp-block-automorphism-step", "exact"): 25,
        ("comp-natural-cycle-dihedral", "exact"): 11,
        ("comp-natural-cycle-cyclic", "exact"): 7,
        ("comp-trivial-step", "exact"): 5,
        ("comp-reversal-step", "exact"): 5,
        ("comp-symmetric-step", "named"): 5,
        ("comp-primitive-degree6-table", "exact"): 5,
        ("comp-young-reversal-derivative", "exact"): 4,
        ("comp-alternating-parity-sieve", "exact"): 3,
        ("comp-block-automorphism-tail", "exact"): 2,
        ("comp-alternating-collapse", "exact"): 2,
    }
    assert census.total() == 1827


def _classification_digest(groups, depth):
    """Per-kind counts, and the sha256 of every group's kind, eventual family,
    onset bound and the citation of each of its first ``depth`` levels."""
    rows = []
    for g in groups:
        c = Classification(g)
        cites = [[c.level(i).citation] for i in range(1, depth + 1)]
        rows.append([describe_group(g), c.kind.value, c.eventual.to_json(), c.onset_bound, cites])
    text = json.dumps(rows, separators=(",", ":"))
    return dict(Counter(row[1] for row in rows)), hashlib.sha256(text.encode()).hexdigest()


_ONE_EACH = {"symmetric": 1, "alternating": 1, "trivial": 1, "descending-only": 1}


def test_classification_table_on_catalogs_4_and_5():
    # guards the class dispatch: any change to a kind, family, bound or
    # citation on these catalogs moves a digest
    assert _classification_digest(pp.enumerate_subgroups(4), 2) == (
        {"intransitive": 19, "imprimitive": 5, "contains-natural-cycle": 2, **_ONE_EACH},
        "09d9052a2e362775273e01bf29fbf8d2e04b2ab3371889b4dc37e1c932f9468f",
    )
    assert _classification_digest(pp.enumerate_subgroups(5), 2) == (
        {"intransitive": 134, "primitive": 15, "contains-natural-cycle": 3, **_ONE_EACH},
        "b20ef30da67627b2e74201f9ef23f0214d1203f3a7ab368cb70df5712f9dcd39",
    )


def test_classification_table_on_catalog_6(degree6_catalog):
    kinds = {"intransitive": 1174, "imprimitive": 258, "primitive": 11}
    assert _classification_digest(degree6_catalog, 1) == (
        {**kinds, "contains-natural-cycle": 8, **_ONE_EACH},
        "ffce02cdc74b82cfe4d33a4e2f3596d3eb6a23852d4060f73f1c25771b95bed6",
    )


def test_alternating_formula_is_group():
    for n in range(2, 9):
        g = _alternating_next_group(n)  # from_words validates closure
        assert g.degree == n + 1


def test_classifier_imports_nothing_from_the_oracle():
    # the level step in galois is the oracle the classifier is checked against
    source = Path(importlib.import_module("permpat.classify").__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.module is None or "galois" not in node.module.split(".")
            assert all(alias.name != "galois" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all("galois" not in alias.name.split(".") for alias in node.names)


def _reversal_shape_candidates(g):
    # the candidates _reversal_young_shape tries: the maximal runs of the
    # orbits and, when the middle two points form one run, that run split
    n = g.degree
    gamma = pp.max_intervals(g.orbits())
    candidates = [gamma]
    if n % 2 == 0 and gamma.block_of(n // 2) == (n // 2, n // 2 + 1):
        split = [b for b in gamma.blocks if b != (n // 2, n // 2 + 1)]
        candidates.append(pp.Partition.from_blocks(split + [(n // 2,), (n // 2 + 1,)]))
    return candidates


def test_reversal_shape_candidates_are_symmetric_under_reversal(degree6_catalog):
    # _reversal_young_shape runs only on groups that hold the reversal, and
    # tests no reversal symmetry of its candidates: every one is symmetric
    seen = Counter()
    for g in (*pp.enumerate_subgroups(4), *pp.enumerate_subgroups(5), *degree6_catalog):
        if pp.descending(g.degree).word not in g.word_set:
            continue
        candidates = _reversal_shape_candidates(g)
        seen[g.degree, len(candidates)] += 1
        for pi in candidates:
            assert pp.reverse_partition(pi) == pi, (describe_group(g), str(pi))
    # (degree, candidates): groups holding the reversal, with and without a split
    assert seen == {(4, 1): 7, (4, 2): 2, (5, 1): 19, (6, 1): 68, (6, 2): 31}
