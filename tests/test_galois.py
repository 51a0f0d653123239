import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat as pp
from permpat import Perm, PermGroup, PermSet, galois
from permpat.galois import _comp_step, iter_levels


def words(*texts):
    return {pp.parse_perm(t).word for t in texts}


def test_pat_set():
    assert pp.pat_set(PermSet(7, [pp.descending(7).word]), 4).word_set == words("4321")
    assert pp.pat_set(PermSet(6, [pp.natural_cycle(6).word]), 3).word_set == words(
        "123", "231"
    )
    d7 = pp.natural_dihedral_group(7)
    d6 = pp.natural_dihedral_group(6)
    assert pp.pat_set(d7, 6).word_set == d6.word_set
    with pytest.raises(ValueError):
        pp.pat_set(d7, 8)


def test_comp_set_examples():
    table_row = pp.parse_group("gens:6:(1 2 3 4);(3 4 5 6)")
    assert pp.comp_set(table_row, 7).word_set == words(
        "1234567", "2154376", "6734512", "7654321"
    )
    s5 = pp.symmetric_group(5)
    assert pp.comp_set(s5, 6).word_set == pp.symmetric_group(6).word_set
    a3 = pp.alternating_group(3)
    assert pp.comp_set(a3, 4).word_set == pp.natural_cyclic_group(4).word_set


def test_comp_set_caps_and_validation():
    s5 = pp.symmetric_group(5)
    with pytest.raises(pp.CapExceeded):
        pp.comp_set(s5, 20)
    with pytest.raises(ValueError):
        pp.comp_set(s5, 5)


def test_comp_set_agrees_with_direct_definition():
    # candidate generation by last-point extension must equal the literal
    # definition based on all patterns
    sets = [
        words("12", "21"),
        words("231", "213"),
        words("321"),
        words("123", "231", "312"),
    ]
    for base in sets:
        degree = len(next(iter(base)))
        s = PermSet(degree, base)
        for m in range(degree + 1, 7):
            direct = {
                w
                for w in map(bytes, itertools.permutations(range(1, m + 1)))
                if all(
                    p.word in base for p in pp.all_patterns(Perm(w), degree)
                )
            }
            assert pp.comp_set(s, m).word_set == direct, (base, m)


def test_gcomp_is_group():
    # the compatibility set of a group is itself a group
    c6 = pp.comp_set(pp.natural_cyclic_group(5), 6)
    assert PermGroup.from_words(c6.word_set, 6) == pp.natural_cyclic_group(6)
    g = PermGroup.from_words(pp.comp_set(pp.alternating_group(5), 6).word_set, 6)
    assert g.order == 36
    # the compatibility set of a group is closed: membership survives products
    sample = sorted(g.word_set)[:6]
    for a in sample:
        for b in sample:
            assert bytes(a[x - 1] for x in b) in g.word_set


def test_comp_level_sequence():
    def levels(g, depth):
        return [PermGroup.from_words(words, k) for k, words in iter_levels(g, depth)]

    assert levels(pp.natural_cyclic_group(5), 3) == [pp.natural_cyclic_group(k) for k in (6, 7, 8)]

    a5 = levels(pp.alternating_group(5), 2)
    assert [g.order for g in a5] == [36, 14]
    assert a5[1] == pp.natural_dihedral_group(7)

    assert levels(pp.symmetric_group(4), 2) == [pp.symmetric_group(5), pp.symmetric_group(6)]

    with pytest.raises(pp.CapExceeded, match="degree 17"):
        levels(pp.natural_cyclic_group(5), 12)


def test_element_cap_is_keyword_only():
    # a positional third argument must not be taken as the element cap
    c5 = pp.natural_cyclic_group(5)
    with pytest.raises(TypeError):
        pp.comp_set(c5, 9, 11)
    with pytest.raises(TypeError):
        pp.verify_group(c5, 1, 11)
    with pytest.raises(TypeError):
        pp.verify_catalog(3, 1, 11)


def test_galois_adjunction_on_groups():
    s = pp.natural_dihedral_group(5)
    comp = pp.comp_set(s, 6)
    assert pp.pat_set(comp, 5).word_set <= s.word_set
    assert s.word_set <= pp.comp_set(pp.pat_set(s, 4), 5).word_set


def test_comp_commutes_with_reverse_complement():
    # Comp(dGd) = d Comp(G) d for the reversal d: the patterns of dwd are the
    # conjugates of the patterns of w
    def rc(words):
        return {bytes(len(w) + 1 - v for v in reversed(w)) for w in words}

    compared = 0
    for n in (4, 5):
        for g in pp.enumerate_subgroups(n):
            flipped = PermSet(n, rc(g.word_set))
            for (k, words), (_, image) in zip(iter_levels(g, 2), iter_levels(flipped, 2)):
                assert image == rc(words), (sorted(g.generator_words), k)
                compared += 1
    assert compared == 2 * (30 + 156)


# ---------------------------------------------------------------------------
# the level step against the plain candidate-by-candidate reference

def _comp_step_reference(words, k):
    """Every lift(w, v) + (v,) whose first k single-point deletions lie in
    ``words``, each deletion written out literally."""
    out = set()
    for w in words:
        for v in range(1, k + 2):
            cand = bytes(x if x < v else x + 1 for x in w) + bytes((v,))
            for i in range(k):
                c = cand[i]
                if bytes(x - (x > c) for x in cand if x != c) not in words:
                    break
            else:
                out.add(cand)
    return out


@st.composite
def _word_sets(draw):
    # sparse sets and near-full ones (all words but a few), so that both empty
    # and large levels come out above them; two levels above a near-full
    # degree-6 set hold tens of thousands of words, too slow for the reference
    k = draw(st.integers(1, 6))
    all_words = list(map(bytes, itertools.permutations(range(1, k + 1))))
    picked = draw(st.sets(st.sampled_from(all_words), max_size=12))
    if k <= 5 and draw(st.booleans()):
        return k, set(all_words) - picked
    return k, picked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_word_sets())
def test_comp_step_matches_reference_one_and_two_steps_up(case):
    k, words = case
    one = _comp_step_reference(words, k)
    assert _comp_step(words, k) == one
    assert _comp_step(one, k + 1) == _comp_step_reference(one, k + 1)


def test_comp_step_edge_sets():
    assert _comp_step(set(), 3) == set()
    assert _comp_step({b""}, 0) == {b"\1"} == _comp_step_reference({b""}, 0)
    assert _comp_step({b"\1"}, 1) == {b"\1\2", b"\2\1"}
    assert _comp_step({b"\1\2"}, 2) == {b"\1\2\3"}
    assert _comp_step({b"\2\1"}, 2) == {b"\3\2\1"}


def test_comp_step_at_the_degree_limit():
    # k = 15 builds degree-16 words, the permutation degree limit: a sparse
    # seeded set holding the descending word, random words, and every
    # deletion of three random degree-16 words, which must then survive
    rng = random.Random(15)
    k = 15
    tops = [bytes(rng.sample(range(1, k + 2), k + 1)) for _ in range(3)]
    words = {bytes(range(k, 0, -1))}
    words.update(bytes(rng.sample(range(1, k + 1), k)) for _ in range(10))
    for top in tops:
        words.update(bytes(x - (x > c) for x in top if x != c) for c in top)
    step = _comp_step(words, k)
    assert step == _comp_step_reference(words, k)
    assert {bytes(range(k + 1, 0, -1)), *tops} <= step


def _family_descriptor(family, n):
    if family == "SPi":  # the Young subgroup of the two halves of 1..n
        half = n // 2
        blocks = [range(1, half + 1), range(half + 1, n + 1)]
        return "SPi:" + "|".join(",".join(map(str, b)) for b in blocks if b)
    return f"{family}:{n}"


@pytest.mark.parametrize("family", ["S", "A", "C", "D", "SPi"])
def test_comp_step_matches_reference_on_group_levels(family):
    # every level above S_n, A_n, C_n, D_n and S_h x S_(n-h) up to degree 8;
    # the D and Young levels keep words whose survivors are some but not all
    # k+1 lifts, so the downward lift runs on masks that are not full.  The
    # starts leave out A_1, C_1, C_2, D_1..D_3 and S_0 x S_1: they are
    # symmetric groups, whose levels the S row walks
    starts = {"S": [1], "C": range(3, 8), "D": range(4, 8)}.get(family, range(2, 8))
    for n in starts:
        words = set(pp.parse_group(_family_descriptor(family, n)).word_set)
        for k in range(n, 8):
            step = _comp_step(words, k)
            assert step == _comp_step_reference(words, k), (family, n, k)
            words = step


def test_comp_step_level_is_one_frozenset_shared_downstream(monkeypatch):
    # the level is built once: from_words and comp_set keep that very set
    level = _comp_step(pp.symmetric_group(4).word_set, 4)
    assert type(level) is frozenset and len(level) == 120
    assert PermGroup.from_words(level, 5).word_set is level
    built = []

    def recording_step(*args):
        built.append(_comp_step(*args))
        return built[-1]

    monkeypatch.setattr(galois, "_comp_step", recording_step)
    top = pp.comp_set(pp.alternating_group(5), 7)
    assert len(built) == 2 and top.word_set is built[-1]


def test_comp_step_checks_the_cap_before_building_a_word(monkeypatch):
    # the level's size is read off the masks, so the cap is checked on the
    # full size with no survivor built: building one would fail here
    s6 = pp.symmetric_group(6).word_set

    def no_building(*args):
        raise AssertionError("a word was built past the cap")

    with monkeypatch.context() as m:
        m.setattr(galois, "_lift_tables", no_building)
        with pytest.raises(
            pp.CapExceeded,
            match=r"level degree 7 exceeded the element cap of 5039 \(5040 words\)",
        ):
            _comp_step(s6, 6, element_cap=5039)
    assert len(_comp_step(s6, 6, element_cap=5040)) == 5040


def test_comp_step_cap_names_the_level_being_built():
    s5 = set(pp.symmetric_group(5).word_set)
    with pytest.raises(pp.CapExceeded, match="level degree 6 exceeded the element cap of 100"):
        _comp_step(s5, 5, element_cap=100)
    assert len(_comp_step(s5, 5, element_cap=720)) == 720
