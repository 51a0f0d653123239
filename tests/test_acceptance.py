"""Acceptance suite: exact-set reproduction of every headline claim, checked
against the brute-force engine, one criterion per test.

Each test prints a single PASS line (run pytest with -s to see them).
"""
import time

import permpat as pp
from permpat import partitions as parts
from permpat import verify as verify_mod
from permpat.classify import _alternating_next_group
from permpat.galois import PermSet, _comp_step, iter_levels
from permpat.groups import PermGroup
from permpat.perms import descending
from permpat.verify import _all_partitions


def _announce(num, name, t0):
    print(f"ACCEPTANCE {num} ({name}): PASS [{time.time() - t0:.1f}s]")


def _levels(g, depth):
    """The ``depth`` brute-force levels above ``g``, each checked to be a group."""
    return [PermGroup.from_words(words, k) for k, words in iter_levels(g, depth)]


def _words(*texts):
    return {pp.parse_perm(t).word for t in texts}


def test_criterion_1_degree6_primitive_table():
    t0 = time.time()
    rows = [
        ("gens:6:(1 2 3 4);(3 4 5 6)",
         _words("1234567", "2154376", "6734512", "7654321")),
        ("gens:6:(1 2 3 4);(2 3 4 5 6)",
         _words("1234567", "1276543", "1543276", "1567234")),
        ("gens:6:(1 2 3 4 5);(3 4 5 6)",
         _words("1234567", "2165437", "4561237", "5432167")),
        ("gens:6:(1 2 3 4 5);(1 3 4)(2 5 6)", _words("1234567", "5432167")),
        ("gens:6:(2 3 4 5 6);(1 2 5)(3 4 6)", _words("1234567", "1276543")),
    ]
    for descriptor, expected in rows:
        g = pp.parse_group(descriptor)
        got = pp.comp_set(g, 7).word_set
        assert got == expected, descriptor
    assert time.time() - t0 < 5.0
    _announce(1, "degree-6 primitive table exactness", t0)


def test_criterion_2_alternating_next_level():
    t0 = time.time()
    for n in range(3, 9):
        oracle = pp.comp_set(pp.alternating_group(n), n + 1)
        assert oracle.word_set == _alternating_next_group(n).word_set, n
    assert time.time() - t0 < 60.0
    _announce(2, "alternating next level", t0)


def test_criterion_3_alternating_two_levels():
    # one of the reversal group / natural dihedral / trivial / natural cyclic
    # according to n mod 4 = 0 / 1 / 2 / 3; the odd split follows the parity
    # of the reversal word (even exactly at n = 0, 1 mod 4)
    t0 = time.time()
    for n in range(4, 9):
        levels = _levels(pp.alternating_group(n), 2)
        expected = pp.predict_level(pp.alternating_group(n), 2).exact
        assert levels[1] == expected, n
    # spot-check the residues hit the intended families
    assert _levels(pp.alternating_group(4), 2)[1] == pp.descending_group(6)
    assert _levels(pp.alternating_group(5), 2)[1] == pp.natural_dihedral_group(7)
    assert _levels(pp.alternating_group(6), 2)[1] == pp.trivial_group(8)
    assert _levels(pp.alternating_group(7), 2)[1] == pp.natural_cyclic_group(9)
    _announce(3, "alternating two-level collapse", t0)


def test_criterion_4_young_subgroup_levels():
    t0 = time.time()
    checked = 0
    for n in range(3, 7):
        for pi in _all_partitions(n):
            sp = pp.young_subgroup(pi)
            has_desc = descending(n).word in sp.word_set
            levels = _levels(sp, 2)
            for i in (1, 2):
                pi_i = parts.derive_iter(pi, i)
                expected = (
                    pp.young_with_reversal(pi_i) if has_desc else pp.young_subgroup(pi_i)
                )
                assert levels[i - 1] == expected, (str(pi), i)
            checked += 1
    assert checked == 5 + 15 + 52 + 203
    assert time.time() - t0 < 300.0
    _announce(4, "block-fixing subgroup levels", t0)


def test_criterion_5_onset_exactness():
    t0 = time.time()
    checked = 0
    for n in (5, 6):
        for pi in _all_partitions(n):
            if len(pi.blocks) < 2:
                continue
            m = parts.max_intervals(pi)
            c, d = len(m.block_of(1)), len(m.block_of(n))
            sp = pp.young_subgroup(pi)
            if sp == pp.sab_group(n, c, d):
                continue
            first = max(parts.mu(pi) - 1, 1)
            words = sp.word_set
            for i in range(1, first + 2):
                degree = n + i
                words = _comp_step(words, degree - 1)
                level = PermGroup.from_words(words, degree)
                in_family = level == pp.sab_group(degree, c, d) or (
                    c == d
                    and level
                    == pp.young_with_reversal(parts.end_blocks(degree, c, d))
                )
                assert in_family == (i >= first), (str(pi), i, first)
            checked += 1
    assert checked > 200
    assert time.time() - t0 < 600.0
    _announce(5, "onset level exactness", t0)


def _expected_autpi_level1(pi):
    n = pi.size
    base = pp.young_subgroup(parts.derive(pi))
    gens = list(base.generator_words)
    gens += [p.word for p in parts.interwoven_generators(pi)]
    if parts.reverse_partition(pi) == pi:
        gens.append(descending(n + 1).word)
    return PermGroup.closure(gens, n + 1)


def _expected_autpi_level2(pi):
    n = pi.size
    if parts.interwoven(pi, 1, n):
        return pp.natural_dihedral_group(n + 2)
    pi2 = parts.derive_iter(pi, 2)
    if parts.reverse_partition(pi) == pi:
        return pp.young_with_reversal(pi2)
    return pp.young_subgroup(pi2)


def test_criterion_6_block_automorphism_levels():
    t0 = time.time()
    counts = {}
    for n in (4, 6, 8):
        counts[n] = 0
        for pi in _all_partitions(n):
            if pi.has_trivial_block():
                continue
            aut = pp.partition_automorphisms(pi)
            words = _comp_step(aut.word_set, n)
            level1 = PermGroup.from_words(words, n + 1)
            assert level1 == _expected_autpi_level1(pi), ("level1", str(pi))
            if len(pi.blocks) >= 2:
                level2 = PermGroup.from_words(_comp_step(words, n + 1), n + 2)
                assert level2 == _expected_autpi_level2(pi), ("level2", str(pi))
            counts[n] += 1
    assert counts == {4: 4, 6: 41, 8: 715}
    assert time.time() - t0 < 900.0
    _announce(6, "block-automorphism levels", t0)


def test_criterion_7_catalog_sweep():
    t0 = time.time()
    for n, expected_groups in ((4, 30), (5, 156)):
        reports = pp.verify_catalog(n, depth=2)
        assert len(reports) == 2 * expected_groups
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, bad[:3]
    assert time.time() - t0 < 600.0
    _announce(7, "subgroup catalog sweep (degrees 4-5)", t0)


def test_criterion_7_catalog_degree6(monkeypatch, degree6_catalog):
    # the catalog is enumerated once per session; its digest is pinned in test_groups
    def enumerate_subgroups(n):
        assert n == 6
        return list(degree6_catalog)

    monkeypatch.setattr(verify_mod, "enumerate_subgroups", enumerate_subgroups)
    t0 = time.time()
    reports = pp.verify_catalog(6, depth=1)
    assert len(reports) == 2 * 1455
    groups = {r.scope for r in reports if r.check_id == "prediction"}
    assert len(groups) == 1455
    bad = [r for r in reports if r.status != "pass"]
    assert not bad, bad[:3]
    assert time.time() - t0 < 3600.0
    _announce(7, "subgroup catalog sweep (degree 6)", t0)


def test_criterion_8_law_suites(laws_seed0):
    t0 = time.time()
    bad = [r for r in laws_seed0 if r.status != "pass"]
    assert not bad, bad[:3]
    # a fresh run of the same seed reports the same results
    strip = lambda rs: [(r.check_id, r.scope, r.status, r.counterexample) for r in rs]
    assert strip(laws_seed0) == strip(pp.verify_laws(seed=0))
    assert time.time() - t0 < 300.0
    _announce(8, "structural law suites", t0)


def test_criterion_9_worked_partition_example():
    t0 = time.time()
    pi = pp.parse_partition("1,2,3,7,8,9,10|4,5,6,12,13,14|11")
    assert pp.max_intervals(pi) == pp.parse_partition("1,2,3|4,5,6|7,8,9,10|11|12,13,14")
    assert pp.derive(pi) == pp.parse_partition("1,2,3|4|5,6|7|8,9,10|11|12|13,14,15")
    _announce(9, "worked partition example", t0)
