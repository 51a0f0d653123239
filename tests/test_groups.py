import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat as pp
from permpat import groups as groups_mod
from permpat import perms as perms_mod
from permpat.classify import EventualFamily
from permpat.galois import iter_levels
from permpat.groups import DEFAULT_ELEMENT_CAP, PermGroup, PermSet, _generate


def _product(f, g):
    """Reference product x -> f(g(x)), read over positions, sharing nothing
    with the translate table ``perms._times``."""
    return bytes(f[x - 1] for x in g)


def _bfs_closure(gens, n):
    """Reference closure: breadth-first products of <gens>, no coset structure."""
    elems = {bytes(range(1, n + 1))}
    kept = []
    for g in gens:
        if g in elems:
            continue
        kept.append(g)
        frontier = [g]
        elems.add(g)
        while frontier:
            nxt = []
            for w in frontier:
                for h in kept:
                    prod = _product(w, h)
                    if prod not in elems:
                        elems.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return frozenset(elems)


def _bfs_greedy_generators(wset, n):
    """Reference for from_words: each generator is the least word outside the
    closure of those before it, closed again from scratch."""
    gens = []
    closed = _bfs_closure(gens, n)
    for w in sorted(wset):
        if w not in closed:
            gens.append(w)
            closed = _bfs_closure(gens, n)
    return tuple(gens)


def _bfs_subgroups(n):
    """Reference for enumerate_subgroups: the same search order, with every
    group closed from scratch and no shortcut to A_n or S_n."""
    def prime_power(k):
        primes = [p for p in range(2, k + 1) if all(p % q for q in range(2, p))]
        return len([p for p in primes if k % p == 0]) == 1

    extenders, cyclic = [], set()
    for w in map(bytes, itertools.permutations(range(1, n + 1))):
        c = _bfs_closure([w], n)
        if prime_power(len(c)) and c not in cyclic:
            cyclic.add(c)
            extenders.append(w)
    alternating = pp.alternating_group(n).word_set
    seen, queue = {}, []

    def push(elems, gens):
        if elems not in seen:
            seen[elems] = gens
            queue.append((elems, gens))

    push(_bfs_closure([], n), ())
    for g in extenders:
        push(_bfs_closure([g], n), (g,))
    while queue:
        elems, gens = queue.pop()
        if len(elems) == math.factorial(n) or elems == alternating:
            continue
        for g in extenders:
            if g not in elems:
                push(_bfs_closure(gens + (g,), n), gens + (g,))
    return sorted((sorted(elems), gens) for elems, gens in seen.items())


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(1, 6))
    word = st.permutations(range(1, n + 1)).map(bytes)
    return n, draw(st.lists(word, max_size=4))


def test_closure_psl25():
    g = pp.parse_group("gens:6:(1 2 3 4 5);(1 3 4)(2 5 6)")
    assert g.order == 60
    assert g.is_transitive() and g.is_primitive()


def test_closure_trivial_and_cyclic():
    assert PermGroup.closure([], 4, 100).order == 1
    g = PermGroup.closure([pp.natural_cycle(4).word], 4)
    assert sorted(str(p) for p in g) == ["1234", "2341", "3412", "4123"]


def test_closure_rejects_a_generator_of_the_wrong_degree():
    with pytest.raises(ValueError, match="^member degree 4 != 5$"):
        PermGroup.closure([b"\2\3\4\1"], 5)


@pytest.mark.parametrize(
    "generators, word",
    [
        # once closed to a monoid of order 2
        ([b"\1\1\1"], (1, 1, 1)),
        # once re-added the same coset forever
        ([b"\1\2\0"], (1, 2, 0)),
        # reached after a first extension, and with a value past the degree
        ([b"\2\3\1", b"\3\3\1"], (3, 3, 1)),
        ([b"\2\1\3", b"\1\2\5"], (1, 2, 5)),
    ],
)
def test_closure_refuses_a_word_that_is_no_permutation(generators, word, monkeypatch):
    # _extend is never reached by the word, so a regression fails here
    # instead of looping forever
    real = groups_mod._extend

    def checked_extend(elems, gens, g, element_cap):
        assert g != bytes(word), f"_extend reached {g!r}"
        return real(elems, gens, g, element_cap)

    monkeypatch.setattr(groups_mod, "_extend", checked_extend)
    message = f"not a permutation of 1..3: {word!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PermGroup.closure(generators, 3)


@pytest.mark.parametrize(
    "words, message",
    [
        pytest.param([b"\1\2\3", b"\1\2"], "member degree 2 != 3", id="words0"),
        pytest.param(
            [b"\1\2", b"\2\1\3\4", b"\3\1\2", b"\1"], "member degree 1 != 3", id="words1"
        ),
    ],
)
def test_permset_refuses_a_member_of_another_degree(words, message):
    # of several members of other degrees, the one with the least repr
    with pytest.raises(ValueError, match=f"^{message}$"):
        PermSet(3, words)


#: Inputs with two bad members, as (builder, words), each with the member
#: it is refused for: the one with the least repr, whatever the frozenset's
#: order, which for ``bytes`` members follows the hash seed.
_TWO_BAD_MEMBERS = [
    (("PermSet", [b"\1\2", (2, 1, 3), b"\1\2\3\4"]), "member (2, 1, 3) is not a bytes word"),
    (("PermSet", [b"\1\2\3\4", b"\2\1\3", b"\1\2"]), "member degree 2 != 3"),
    (
        ("from_words", [b"\1\2", (2, 1, 3), b"\1\2\3", b"\2\1\3"]),
        "member (2, 1, 3) is not a bytes word",
    ),
]

_REFUSE_EACH = """
import ast, sys
from permpat.groups import PermGroup, PermSet
build = {"PermSet": lambda w: PermSet(3, w), "from_words": lambda w: PermGroup.from_words(w, 3)}
for name, words in ast.literal_eval(sys.argv[1]):
    try:
        build[name](words)
    except ValueError as e:
        print(e)
"""


def test_a_set_with_two_bad_members_is_refused_alike_at_every_hash_seed():
    cases = repr([case for case, _ in _TWO_BAD_MEMBERS])
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "1", "2", "3"):
        run = subprocess.run(
            [sys.executable, "-c", _REFUSE_EACH, cases],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [message for _, message in _TWO_BAD_MEMBERS], seed


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: pp.trivial_group(3).is_subgroup_of(pp.trivial_group(4)), "degree mismatch: 3 vs 4"),
        (lambda: pp.mu_ab(pp.parse_partition("1,2|3"), 0, 1), "a and b must be >= 1"),
        (lambda: pp.mu_ab(pp.parse_partition("1,2|3"), 1, 0), "a and b must be >= 1"),
        (lambda: pp.Classification(pp.trivial_group(3)).level(0), "level must be >= 1"),
    ],
    ids=["is_subgroup_of", "mu_ab-a", "mu_ab-b", "level"],
)
def test_argument_refusals_are_worded(refused, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()


@pytest.mark.parametrize(
    "degree, words", [(17, [bytes((2, 1, *range(3, 18)))]), (0, [b""]), (0, [b"\1"])]
)
def test_permset_refuses_a_degree_outside_the_limit(degree, words):
    with pytest.raises(ValueError, match=f"^degree must be in 1..16, got {degree}$"):
        PermSet(degree, words)


def test_multiplication_matches_composition():
    # r.translate(_times(s)) is s·r, x -> s(r(x)), at every degree
    for n in range(2, 6):
        words = list(map(bytes, itertools.permutations(range(1, n + 1))))
        for s in words:
            times_s = perms_mod._times(s)
            assert all(r.translate(times_s) == _product(s, r) for r in words)
    rng = random.Random(16)
    for _ in range(200):
        r, s = (bytes(rng.sample(range(1, 17), 16)) for _ in range(2))
        assert r.translate(perms_mod._times(s)) == _product(s, r)


def test_every_word_is_bytes():
    descriptors = [
        "S:4", "A:4", "T:4", "Desc:4", "C:4", "D:4", "Dint:5:1:4", "Sab:5:2:2",
        "SPi:1,2|3,4", "SPiDesc:1,2|3,4", "AutPi:1,2|3,4", "gens:4:(1 2 3);(1 2)",
    ]
    groups = [pp.parse_group(text) for text in descriptors]
    c5 = pp.natural_cyclic_group(5)
    groups += [
        PermGroup.closure([pp.natural_cycle(5).word], 5),
        PermGroup.from_words(c5.word_set, 5),
        *pp.enumerate_subgroups(4),
        pp.Classification(pp.alternating_group(5)).level(1).exact,
    ]
    sets = [g.word_set for g in groups] + [g.generator_words for g in groups]
    sets += [
        [pp.Perm([2, 4, 1, 3]).word, pp.parse_perm("(1 2)", 3).word],
        pp.pat_set(c5, 3).word_set,
        pp.comp_set(c5, 7).word_set,
        *(words for _, words in iter_levels(pp.alternating_group(4), 2)),
    ]
    assert {type(w) for words in sets for w in words} == {bytes}


_BUILDERS = {
    "PermSet": lambda words, n: PermSet(n, words),
    "closure": PermGroup.closure,
    "from_words": PermGroup.from_words,
}

#: Each fault every set and group refuses, and its one wording.
_MEMBER_FAULTS = {
    # stored beside bytes words, a tuple would miss every lookup
    "tuple": ([b"\1\2\3", (2, 1, 3)], "member (2, 1, 3) is not a bytes word"),
    # one word alone is never compared by from_words' walk, so it is refused
    # when the walk reaches it
    "lone-tuple": ([(1, 2, 3)], "member (1, 2, 3) is not a bytes word"),
    "short": ([b"\1\2\3", b"\2\1\3", b"\2\1"], "member degree 2 != 3"),
    "all-short": ([b"\1\2", b"\2\1"], "member degree 2 != 3"),
}

#: Each fault only a group refuses: a set need hold no permutations.
_GROUP_FAULTS = {
    "no-permutation": ([b"\1\2\3", b"\1\1\1"], "not a permutation of 1..3: (1, 1, 1)"),
}


@pytest.mark.parametrize(
    "build, fault",
    [(b, f) for b in _BUILDERS for f in _MEMBER_FAULTS]
    + [(b, f) for b in ("closure", "from_words") for f in _GROUP_FAULTS],
)
def test_a_bad_member_is_refused_in_one_wording(build, fault):
    words, message = {**_MEMBER_FAULTS, **_GROUP_FAULTS}[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _BUILDERS[build](words, 3)


def test_permset_and_group_with_the_same_words_are_equal():
    g = pp.natural_cyclic_group(5)
    s = PermSet(5, g.word_set)
    assert s == g and g == s
    assert hash(s) == hash(g)
    assert len({s, g}) == 1
    assert PermSet(5, g.word_set - {pp.natural_cycle(5).word}) != g


def test_group_iterates_in_sorted_order():
    g = pp.natural_dihedral_group(5)
    assert [p.word for p in g] == sorted(g.word_set)


def test_closure_cap():
    with pytest.raises(pp.CapExceeded):
        pp.symmetric_group(10)
    with pytest.raises(pp.CapExceeded):
        PermGroup.closure([pp.natural_cycle(9).word], 9, element_cap=5)


def test_one_element_groups_refuse_a_cap_of_0_alike():
    with pytest.raises(pp.CapExceeded, match=r"^A_1: 1 words exceed the element cap 0$"):
        pp.alternating_group(1, 0)
    with pytest.raises(pp.CapExceeded, match=r"^S_1: 1 words exceed the element cap 0$"):
        pp.symmetric_group(1, 0)
    # A_n holds n!/2 words, and one for n < 2; a cap of exactly that admits it
    for n in range(1, 7):
        order = max(math.factorial(n) // 2, 1)
        assert pp.alternating_group(n, order).order == order, n
        with pytest.raises(pp.CapExceeded, match=rf"^A_{n}: {order} words exceed"):
            pp.alternating_group(n, order - 1)


def test_from_words_rejects_non_groups():
    with pytest.raises(ValueError):
        PermGroup.from_words({b"\2\3\1"}, 3)
    g = PermGroup.from_words({b"\1\2\3", b"\2\3\1", b"\3\1\2"}, 3)
    assert g.order == 3


@pytest.mark.parametrize(
    "words, degree, word",
    [
        # the identity and (1, 1, 1) once closed to a monoid of order 2
        ({b"\1\2\3", b"\1\1\1"}, 3, (1, 1, 1)),
        ({b"\1\2", b"\1\1"}, 2, (1, 1)),
        # reached after a first extension, and with a value past the degree
        ({b"\1\2\3", b"\2\3\1", b"\3\1\2", b"\3\3\1"}, 3, (3, 3, 1)),
        ({b"\1\2\3", b"\1\2\5"}, 3, (1, 2, 5)),
    ],
)
def test_from_words_refuses_a_word_that_is_no_permutation(words, degree, word):
    message = f"not a permutation of 1..{degree}: {word!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PermGroup.from_words(words, degree)


@pytest.mark.parametrize(
    "words, degree",
    [
        # a 17-point transposition once reached _times' value table and died
        # with IndexError; the degree-0 set was once a group of order 1
        ([bytes(range(1, 18)), bytes((2, 1, *range(3, 18)))], 17),
        ([b""], 0),
    ],
)
def test_from_words_refuses_a_degree_outside_the_limit(words, degree):
    message = f"degree must be in 1..16, got {degree}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        PermGroup.from_words(words, degree)
    with pytest.raises(ValueError, match=f"^{message}$"):
        PermGroup.closure(words[-1:], degree)


def test_named_groups():
    assert pp.natural_dihedral_group(5).order == 10
    assert pp.sab_group(7, 2, 3).order == math.factorial(2) * math.factorial(3)
    assert pp.partition_automorphisms(pp.parse_partition("1,3,5|2,4,6")).order == 72
    assert pp.symmetric_group(4).order == 24
    assert pp.alternating_group(4).order == 12
    assert pp.trivial_group(3).order == 1
    assert pp.descending_group(4).order == 2
    assert pp.natural_cyclic_group(6).order == 6


def test_young_subgroups():
    p = pp.parse_partition("1,2|3|4,5")
    y = pp.young_subgroup(p)
    assert y.order == 4
    assert y.orbits() == p
    rev = pp.young_with_reversal(p)
    assert rev.order == 8
    assert pp.descending(5).word in rev.word_set


def _set_partitions(n):
    """Every partition of 1..n, each as a list of blocks."""
    if n == 0:
        yield []
        return
    for smaller in _set_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n]] + smaller[i + 1:]
        yield smaller + [[n]]


def _inversions(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def test_named_groups_match_their_definitions():
    # each constructor closes generators; compare with the element sets
    # the definitions name, built without any closure
    count = 0
    for n in range(1, 7):
        words = list(map(bytes, itertools.permutations(range(1, n + 1))))
        for blocks in _set_partitions(n):
            expected = {w for w in words if all({w[x - 1] for x in b} == set(b) for b in blocks)}
            assert pp.young_subgroup(pp.Partition.from_blocks(blocks)).word_set == expected, blocks
            count += 1
    assert count == 278
    for n in range(1, 9):
        words = map(bytes, itertools.permutations(range(1, n + 1)))
        expected = {w for w in words if _inversions(w) % 2 == 0}
        assert pp.alternating_group(n).word_set == expected, n
    for n in range(1, 11):
        identity = bytes(range(1, n + 1))
        rotations = {bytes((x + k) % n + 1 for x in range(n)) for k in range(n)}
        assert pp.natural_cyclic_group(n).word_set == rotations, n
        assert pp.descending_group(n).word_set == {identity, identity[::-1]}, n
        assert pp.trivial_group(n).word_set == {identity}, n


def test_young_with_reversal_matches_closing_the_young_subgroup():
    count = 0
    for n in range(1, 7):
        for blocks in _set_partitions(n):
            p = pp.Partition.from_blocks(blocks)
            d = pp.descending(n).word
            old = PermGroup.closure(pp.young_subgroup(p).generator_words + (d,), n)
            new = pp.young_with_reversal(p)
            assert new.generator_words == old.generator_words, blocks
            assert new.word_set == old.word_set, blocks
            count += 1
    assert count == 1 + 2 + 5 + 15 + 52 + 203  # Bell numbers
    with pytest.raises(
        pp.CapExceeded, match=r"^Young subgroup of 1,2,3,4,5\|6: 120 words exceed the element cap 100$"
    ):
        pp.young_with_reversal(pp.parse_partition("1,2,3,4,5|6"), 100)


def test_natural_dihedral_group_is_built_once_per_degree():
    dihedral = pp.natural_dihedral_group
    for k in range(1, perms_mod.MAX_DEGREE + 1):
        assert dihedral(k) is dihedral(k)
        if k >= 3:
            assert dihedral(k).order == 2 * k
    kept = dihedral.cache_info().currsize
    for k in (0, perms_mod.MAX_DEGREE + 1):
        for _ in range(2):  # a refused degree is not kept, so it raises again
            with pytest.raises(ValueError, match=rf"^degree must be in 1\.\.16, got {k}$"):
                dihedral(k)
    assert dihedral.cache_info().currsize == kept


@pytest.fixture
def fresh_dihedral():
    """Empties the D_k memo, and the family members kept above it, before
    and after the test; yields the memo's ``cache_info``."""
    memos = (groups_mod.natural_dihedral_group, EventualFamily.group_at)
    for memo in memos:
        memo.cache_clear()
    yield groups_mod.natural_dihedral_group.cache_info
    for memo in memos:
        memo.cache_clear()


def test_catalog_passes_close_each_dihedral_group_once(fresh_dihedral):
    # the two passes of the catalog benchmark ask for D_3 .. D_8 again and
    # again (428 times when this was written, 420 of them from
    # dihedral_interval_group) and close each once
    reports = pp.verify_catalog(5, 3) + pp.verify_catalog(4, 4)
    assert all(r.status == "pass" for r in reports)
    info = fresh_dihedral()
    assert (info.misses, info.currsize) == (6, 6) and info.hits > 0


def test_dihedral_interval():
    g = pp.dihedral_interval_group(6, 2, 5)
    assert g.order == 8
    for w in g.word_set:
        assert w[0] == 1 and w[5] == 6
    inner = pp.natural_dihedral_group(4)
    assert {bytes(v - 1 for v in w[1:5]) for w in g.word_set} == inner.word_set


def test_membership_and_inclusion():
    a4 = pp.alternating_group(4)
    assert pp.parse_perm("2341").word not in a4.word_set
    assert pp.natural_cyclic_group(5).is_subgroup_of(pp.natural_dihedral_group(5))
    d3 = PermGroup.closure([pp.natural_cycle(3).word, pp.descending(3).word], 3)
    assert d3 == pp.symmetric_group(3)


def test_orbits():
    g = pp.parse_group("gens:4:(1 2)")
    assert g.orbits() == pp.parse_partition("1,2|3|4")
    assert pp.symmetric_group(5).orbits() == pp.parse_partition("1,2,3,4,5")
    g2 = pp.parse_group("gens:4:(1 2)(3 4)")
    assert g2.orbits() == pp.parse_partition("1,2|3,4")


def test_block_systems_and_primitivity():
    assert pp.natural_cyclic_group(5).is_primitive()
    c4 = pp.natural_cyclic_group(4)
    assert c4.block_systems() == [pp.parse_partition("1,3|2,4")]
    assert not c4.is_primitive()
    pgl = pp.parse_group("gens:6:(1 2 3 4 5);(1 5 2 4 3 6)")
    assert pgl.order == 120 and pgl.is_primitive()
    with pytest.raises(ValueError):
        pp.parse_group("gens:4:(1 2)").is_primitive()
    # all minimal systems of the transitive Klein group on four points
    klein = pp.parse_group("gens:4:(1 2)(3 4);(1 3)(2 4)")
    assert len(klein.block_systems()) == 3


def test_largest_ab():
    y = pp.young_subgroup(pp.parse_partition("1,2|3|4,5"))
    assert y.largest_ab() == (2, 2)
    assert pp.trivial_group(4).largest_ab() == (1, 1)
    assert pp.alternating_group(5).largest_ab() == (1, 1)
    assert pp.young_subgroup(pp.parse_partition("1,2,3|4,5")).largest_ab() == (3, 2)


def test_enumerate_subgroups_counts():
    assert len(pp.enumerate_subgroups(1)) == 1
    assert len(pp.enumerate_subgroups(2)) == 2
    assert len(pp.enumerate_subgroups(3)) == 6
    assert len(pp.enumerate_subgroups(4)) == 30
    with pytest.raises(ValueError):
        pp.enumerate_subgroups(7)


def test_enumerate_subgroups_degree3_against_powerset(fresh_catalog):
    # independent oracle: scan all subsets of the 6 words for closure
    words = list(map(bytes, itertools.permutations((1, 2, 3))))
    brute = set()
    for r in range(1, 7):
        for subset in itertools.combinations(words, r):
            s = set(subset)
            if b"\1\2\3" not in s:
                continue
            closed = all(
                bytes(f[x - 1] for x in g) in s for f in s for g in s
            )
            if closed:
                brute.add(frozenset(s))
    ours = {g.word_set for g in pp.enumerate_subgroups(3)}
    assert ours == brute


def test_enumerate_subgroups_lagrange_and_determinism(fresh_catalog):
    subs = pp.enumerate_subgroups(4)
    for g in subs:
        assert math.factorial(4) % g.order == 0
    fresh_catalog()
    again = pp.enumerate_subgroups(4)
    assert [(g.word_set, g.generator_words) for g in subs] == [
        (h.word_set, h.generator_words) for h in again
    ]


def test_parse_group_grammar():
    assert pp.parse_group("S:5").order == 120
    assert pp.parse_group("A:5").order == 60
    assert pp.parse_group("T:5").order == 1
    assert pp.parse_group("Desc:5").order == 2
    assert pp.parse_group("C:5").order == 5
    assert pp.parse_group("D:5").order == 10
    assert pp.parse_group("Dint:5:1:4").order == 8
    assert pp.parse_group("Sab:7:2:3").order == 12
    assert pp.parse_group("SPi:1,2|3|4,5").order == 4
    assert pp.parse_group("SPiDesc:1,2|3|4,5").order == 8
    assert pp.parse_group("AutPi:1,3,5|2,4,6").order == 72
    assert pp.parse_group("gens:6:(1 2 3 4);(3 4 5 6)").order == 120
    with pytest.raises(ValueError):
        pp.parse_group("X:5")
    with pytest.raises(ValueError):
        pp.parse_group("S")
    with pytest.raises(ValueError):
        pp.parse_group("gens:3:(1 5)")


def test_describe_group_roundtrip():
    for text in ("D:6", "SPi:1,2|3,4", "gens:6:(1 2 3 4);(3 4 5 6)"):
        g = pp.parse_group(text)
        assert pp.parse_group(pp.describe_group(g)) == g


def test_named_group_generators_generate():
    for text in ("S:1", "S:2", "S:5", "A:2", "A:3", "A:5", "A:6", "C:6", "D:6",
                  "T:4", "Desc:4", "Sab:6:2:2", "SPi:1,2|3,4,5", "AutPi:1,2|3,4"):
        g = pp.parse_group(text)
        regenerated = PermGroup.closure(g.generator_words, g.degree)
        assert regenerated.word_set == g.word_set, text


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_generator_sets())
def test_closure_and_from_words_match_bfs_reference(case):
    n, gens = case
    expected = _bfs_closure(gens, n)
    g = PermGroup.closure(gens, n)
    assert g.word_set == expected
    assert g.generator_words == tuple(gens)
    h = PermGroup.from_words(expected, n)
    assert h.word_set == expected
    assert h.generator_words == _bfs_greedy_generators(expected, n)
    if len(expected) > 2:
        # a group minus one non-identity element is never closed
        with pytest.raises(ValueError):
            PermGroup.from_words(expected - {max(expected)}, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_generator_sets())
def test_from_words_rejects_sets_the_reference_finds_open(case):
    n, words = case
    wset = frozenset(words) | {bytes(range(1, n + 1))}
    if _bfs_closure(sorted(wset), n) == wset:
        assert PermGroup.from_words(wset, n).word_set == wset
    else:
        with pytest.raises(ValueError):
            PermGroup.from_words(wset, n)


def _from_words_reference(words, n, element_cap=DEFAULT_ELEMENT_CAP):
    """from_words with the eager walk: close over every word in sorted order,
    then compare the closure with the set."""
    wset = frozenset(words)
    closed, gens = _generate(sorted(wset), n, element_cap)
    if closed != wset:
        raise ValueError(
            f"element set of size {len(wset)} is not closed "
            f"(closure has {len(closed)} elements)"
        )
    return PermGroup(n, gens, wset)


def _from_words_outcome(build, wset, n, element_cap):
    try:
        g = build(wset, n, element_cap)
    except (ValueError, pp.CapExceeded) as exc:
        return type(exc), str(exc)
    return g.word_set, g.generator_words


def _assert_from_words_matches_reference(wset, n):
    # the full walk, and caps that stop the closure before, at and after the set
    for cap in (DEFAULT_ELEMENT_CAP, 1, 2, len(wset) - 1, len(wset)):
        assert _from_words_outcome(PermGroup.from_words, wset, n, cap) == (
            _from_words_outcome(_from_words_reference, wset, n, cap)
        ), (n, len(wset), cap)


@pytest.mark.parametrize("family", ["S", "A", "C", "D", "SPi"])
def test_from_words_matches_reference_on_group_levels(family):
    # every level above S_n, A_n, C_n and D_n up to degree 8; the starts leave
    # out A_1, C_1, C_2 and D_1..D_3: they are symmetric groups, whose levels
    # the S row walks.  SPi is the Young subgroup of 1|2..n, n = 4..7: every
    # word of its levels begins with 1 2, so the sorted walk goes one
    # position deeper than its first bound
    starts = {"S": [1], "C": range(3, 8), "D": range(4, 8), "SPi": range(4, 8)}
    for n in starts.get(family, range(2, 8)):
        text = f"{family}:{n}"
        if family == "SPi":
            text = "SPi:1|" + ",".join(map(str, range(2, n + 1)))
        for k, words in iter_levels(pp.parse_group(text), 8 - n):
            assert family != "SPi" or all(w[:2] == b"\1\2" for w in words)
            _assert_from_words_matches_reference(frozenset(words), k)


@st.composite
def _walk_inputs(draw):
    """A degree n in 1..7 and a set of permutation words of degree n fixing
    their first 0..3 points, with a few malformed words: the empty word,
    other lengths, and the values 0 and n + 1."""
    n = draw(st.integers(1, 7))
    fixed = bytes(range(1, draw(st.integers(0, min(3, n))) + 1))
    perms = st.permutations(range(len(fixed) + 1, n + 1)).map(lambda w: fixed + bytes(w))
    malformed = st.lists(st.integers(0, n + 1), max_size=n + 2).map(bytes)
    words = draw(st.lists(perms, max_size=30)) + draw(st.lists(malformed, max_size=4))
    return n, frozenset(words)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_walk_inputs())
def test_sorted_walk_is_sorted(case):
    n, wset = case
    assert list(groups_mod._sorted_walk(wset, n)) == sorted(wset)


def test_from_words_does_not_stop_on_a_closure_of_the_same_size():
    # 1243 and 2134 close to {1234, 1243, 2134, 2143}: as many words as the
    # set but not the set; 3412 then closes to the dihedral group of order 8
    wset = frozenset(pp.parse_perm(t).word for t in ("1234", "1243", "2134", "3412"))
    message = "element set of size 4 is not closed (closure has 8 elements)"
    with pytest.raises(ValueError) as exc:
        PermGroup.from_words(wset, 4)
    assert str(exc.value) == message
    _assert_from_words_matches_reference(wset, 4)


def _spy_on_closure(monkeypatch):
    """Record each certificate walk as (m, verdict) and each word _extend closes by."""
    walks, extended = [], []
    real_walk, real_extend = groups_mod._closes_to, groups_mod._extend

    def walk(wset, elems, gens, g, m):
        verdict = real_walk(wset, elems, gens, g, m)
        walks.append((m, verdict))
        return verdict

    def extend(elems, gens, g, element_cap):
        extended.append(g)
        return real_extend(elems, gens, g, element_cap)

    monkeypatch.setattr(groups_mod, "_closes_to", walk)
    monkeypatch.setattr(groups_mod, "_extend", extend)
    return walks, extended


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_from_words_never_builds_the_extension_that_closes_a_symmetric_level(n, monkeypatch):
    # the level above S_{n-1} is S_n; its last generator 2134...n extends the
    # stabilizer of 1 by index n, the degree, and is checked by the coset walk
    level = frozenset(map(bytes, itertools.permutations(range(1, n + 1))))
    walks, extended = _spy_on_closure(monkeypatch)
    g = PermGroup.from_words(level, n)
    assert g.generator_words[-1] == bytes((2, 1, *range(3, n + 1)))
    assert walks == [(n, True)]
    assert extended == list(g.generator_words[:-1])
    assert g.generator_words == _from_words_reference(level, n).generator_words


def _stabilizer_of_one(n):
    return frozenset(b"\1" + bytes(w) for w in itertools.permutations(range(2, n + 1)))


@pytest.mark.parametrize("case", ["coset", "subgroup", "index", "over"])
def test_from_words_coset_walk_on_sets_that_are_no_groups(case, monkeypatch):
    # G, the stabilizer of 1, is reached from H = the stabilizer of 1 and 2 by
    # g = 1324...n; each set W has |W| = m |H| with m <= n, so the walk runs,
    # but W is no group: a coset of H leaves W, H itself does, or <H, g> has
    # one coset fewer than m.  In the last case H is G and W = G u G (1 2),
    # so g = 2134...n gives m = 2, and the walk gives up at the third of the
    # n cosets of <H, g> = S_n
    n = {"index": 7, "over": 5}.get(case, 6)
    group = _stabilizer_of_one(n)
    subgroup = frozenset(w for w in group if w[1] == 2)
    outside = sorted(w for w in map(bytes, itertools.permutations(range(1, n + 1))) if w[0] != 1)
    if case == "coset":
        wset = group - {max(group)} | {outside[-1]}
    elif case == "subgroup":
        wset = group - {max(subgroup)} | {outside[-1]}
    elif case == "index":
        wset = group | set(outside[: len(subgroup)])
    else:
        subgroup = group
        wset = group | {bytes((w[1], w[0], *w[2:])) for w in group}
    m = len(wset) // len(subgroup)
    assert m * len(subgroup) == len(wset) and m <= n
    walks, _ = _spy_on_closure(monkeypatch)
    message = (
        f"element set of size {len(wset)} is not closed "
        f"(closure has {math.factorial(n)} elements)"
    )
    for build in (PermGroup.from_words, _from_words_reference):
        with pytest.raises(ValueError) as exc:
            build(wset, n)
        assert str(exc.value) == message
    assert walks == [(m, False)]
    _assert_from_words_matches_reference(wset, n)


def test_from_words_holds_no_second_copy_of_the_level():
    # the level above S_7: closing over the stabilizer of 1 and walking its
    # eight cosets must not build the level's 40320 words again, nor hold a
    # list of all of them to sort
    ((k, level),) = iter_levels(pp.symmetric_group(7), 1)
    words_bytes = sum(map(sys.getsizeof, level))
    tracemalloc.start()
    try:
        PermGroup.from_words(level, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(level) == 40320
    assert peak < words_bytes * 2 / 3, (peak, words_bytes)


def _from_words_peak(words, degree):
    tracemalloc.start()
    try:
        PermGroup.from_words(words, degree)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sorted_walk_keeps_no_copy_of_words_with_a_fixed_prefix():
    # S_8 acting on the points 2..9: every word fixes 1, so the walk goes one
    # position deeper than on S_8 itself; it may hold one list of the 40320
    # words for that, but not a second one beside the words past the head
    s8 = frozenset(map(bytes, itertools.permutations(range(1, 9))))
    shifted = frozenset(bytes((1, *(x + 1 for x in w))) for w in s8)
    one_list = len(s8) * 8
    excess = _from_words_peak(shifted, 9) - _from_words_peak(s8, 8)
    assert excess < one_list, (excess, one_list)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_generator_sets())
def test_from_words_matches_reference_on_open_and_closed_sets(case):
    n, words = case
    wset = frozenset(words) | {bytes(range(1, n + 1))}
    _assert_from_words_matches_reference(wset, n)
    _assert_from_words_matches_reference(_bfs_closure(sorted(wset), n), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_subgroups_matches_bfs_reference(n, fresh_catalog):
    ours = sorted((sorted(g.word_set), g.generator_words) for g in pp.enumerate_subgroups(n))
    assert ours == _bfs_subgroups(n)


def test_enumerate_subgroups_degree6_digest(degree6_catalog):
    # beyond the BFS reference's reach; generator tuples reach verify's stdout
    # through describe_group, so they are pinned with the element sets
    # the words as tuples, the type they had when the digest was recorded
    catalog = [
        (sorted(map(tuple, g.word_set)), tuple(map(tuple, g.generator_words)))
        for g in degree6_catalog
    ]
    assert len(catalog) == 1455
    assert hashlib.sha256(repr(catalog).encode()).hexdigest() == (
        "98646ce1dbd380b555b927a1b3e3279a368fa2b73892342ab388988d71778183"
    )


def test_enumerate_subgroups_closes_once_per_double_coset(monkeypatch, fresh_catalog):
    # one closure per extender (8183 calls at degree 5) must fail this count
    calls = []
    real = groups_mod._extend

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(groups_mod, "_extend", counting)
    assert len(pp.enumerate_subgroups(5)) == 156
    assert len(calls) == 1638


def test_enumerate_subgroups_keeps_one_catalog_per_degree(monkeypatch, fresh_catalog):
    # the second call enumerates nothing: it wraps the first call's element
    # sets and generators in new groups, so structure one caller caches on
    # a group is not seen through another
    calls = []
    real = groups_mod._prime_power_order_words
    monkeypatch.setattr(
        groups_mod, "_prime_power_order_words", lambda n: calls.append(n) or real(n)
    )
    first, second = pp.enumerate_subgroups(4), pp.enumerate_subgroups(4)
    assert calls == [4]
    assert first == second and len(first) == 30
    assert all(g is not h for g, h in zip(first, second))
    assert all(
        g.word_set is h.word_set and g.generator_words is h.generator_words
        for g, h in zip(first, second)
    )
    g, h = first[-1], second[-1]
    assert g.orbits() == pp.parse_partition("1,2,3,4")
    assert g._orbits is not None and h._orbits is None
    assert pp.enumerate_subgroups(3) != first and calls == [4, 3]


def _sympy_group(g):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = g.generator_words or (bytes(range(1, g.degree + 1)),)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation([v - 1 for v in w]) for w in gens]
    )


def _sympy_block_systems(sg):
    systems = []
    for reps in sg.minimal_blocks():
        blocks = {}
        for x, r in enumerate(reps, start=1):
            blocks.setdefault(r, []).append(x)
        if len(blocks) > 1:  # a primitive group comes back as one block
            systems.append(pp.Partition.from_blocks(blocks.values()))
    return sorted(systems, key=lambda p: p.blocks)


def _assert_structure_matches_sympy(g):
    sg = _sympy_group(g)
    assert sg.order() == g.order, g.generator_words
    orbits = pp.Partition.from_blocks([sorted(x + 1 for x in o) for o in sg.orbits()])
    assert orbits == g.orbits(), g.generator_words
    if g.is_transitive():
        assert _sympy_block_systems(sg) == g.block_systems(), g.generator_words
        assert sg.is_primitive() == g.is_primitive(), g.generator_words


@pytest.mark.parametrize("n", [3, 4, 5])
def test_group_structure_matches_sympy(n):
    # an independent oracle for order, orbits, minimal block systems and primitivity
    subgroups = pp.enumerate_subgroups(n)
    for g in subgroups:
        _assert_structure_matches_sympy(g)
    transitive = sum(g.is_transitive() for g in subgroups)
    assert transitive == {3: 2, 4: 9, 5: 20}[n]


@pytest.mark.parametrize(
    "descriptor",
    ["C:8", "D:8", "AutPi:1,2|3,4|5,6|7,8", "AutPi:1,3,5|2,4,6", "D:6",
     "gens:6:(1 2 3 4 5);(1 3 4)(2 5 6)"],
)
def test_named_group_structure_matches_sympy(descriptor):
    # nested block systems need block sizes 1 < a | b < n with b | n, so the
    # minimality of block_systems() shows first at degree 8
    _assert_structure_matches_sympy(pp.parse_group(descriptor))
