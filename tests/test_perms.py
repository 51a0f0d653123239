import itertools
import random

import pytest
from hypothesis import given, strategies as st

import permpat as pp
from permpat import Perm
from permpat.perms import MAX_DEGREE, _delete_word, _pattern_words


def P(text, degree=None):
    return pp.parse_perm(text, degree)


# ---------------------------------------------------------------------------
# constructors

def test_named_words():
    assert str(pp.natural_cycle(4)) == "2341"
    assert str(pp.ascending(5)) == "12345"
    assert str(pp.descending(5)) == "54321"
    assert str(pp.dja(7, 4)) == "4321567"
    assert str(pp.ajd(5, 2)) == "12354"
    assert pp.natural_cycle(1) == pp.ascending(1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Perm([1, 1, 2])
    with pytest.raises(ValueError):
        Perm([0, 1])
    # the degree range is worded as for a group descriptor such as S:17
    with pytest.raises(ValueError, match=r"^degree must be in 1\.\.16, got 0$"):
        Perm(())
    with pytest.raises(ValueError, match=r"^degree must be in 1\.\.16, got 17$"):
        Perm(range(1, 18))  # above the degree cap
    with pytest.raises(ValueError):
        pp.dja(4, 5)


def test_perm_is_immutable():
    p = P("231")
    with pytest.raises(AttributeError):
        p.word = (1, 2, 3)


# ---------------------------------------------------------------------------
# algebra

def test_compose():
    assert pp.compose(P("231"), P("213")) == P("321")
    assert pp.compose(P("2341"), pp.ascending(4)) == P("2341")
    assert pp.compose(P("2341"), P("4123")) == P("1234")
    with pytest.raises(ValueError):
        pp.compose(P("21"), P("321"))


def test_inverse_and_power():
    assert pp.inverse(P("2341")) == P("4123")


# ---------------------------------------------------------------------------
# text formats

def test_parse_one_line():
    assert P("2,3,1") == Perm((2, 3, 1))
    assert P("2 3 1") == Perm((2, 3, 1))
    assert P("231") == Perm((2, 3, 1))
    with pytest.raises(ValueError):
        P("221")
    with pytest.raises(ValueError):
        P("2,3,5")
    with pytest.raises(ValueError):
        P("")


def test_parse_refuses_a_non_permutation_by_the_perm_check():
    # one check for every parsed word: the one Perm runs
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(2, 2, 1\)"):
        P("221")
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(2, 3, 5\)"):
        P("2,3,5")


def test_parse_cycles():
    assert P("(1 2 3 4)", 6) == P("234156")
    assert P("(1 2 3)(4 5)", 5) == P("231,54".replace(",", ""))
    assert P("()", 3) == pp.ascending(3)
    with pytest.raises(ValueError):
        P("(1 2", 4)
    with pytest.raises(ValueError):
        P("(1 2)(2 3)", 4)
    with pytest.raises(ValueError):
        P("(1 9)", 4)
    with pytest.raises(ValueError):
        P("(1 2 3)")  # cycles need a degree


def test_format():
    assert pp.format_perm(P("231")) == "231"
    assert pp.format_perm(Perm(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    assert pp.format_perm(P("234156"), "cycles") == "(1 2 3 4)"
    assert pp.format_perm(pp.ascending(4), "cycles") == "()"


@given(st.permutations(list(range(1, 8))))
def test_parse_format_roundtrip(word):
    p = Perm(word)
    assert pp.parse_perm(pp.format_perm(p)) == p
    assert pp.parse_perm(pp.format_perm(p, "cycles"), p.degree) == p


# ---------------------------------------------------------------------------
# patterns

def test_pattern():
    assert pp.pattern(P("2341"), {1, 3}) == P("12")
    assert pp.pattern(P("1543276"), range(1, 8)) == P("1543276")
    assert pp.pattern(P("35142"), {2, 3, 5}) == P("312")
    with pytest.raises(ValueError):
        pp.pattern(P("231"), {0, 1})
    with pytest.raises(ValueError):
        pp.pattern(P("231"), set())


def test_delete_point():
    assert pp.delete_point(P("2341"), 4) == P("123")
    assert pp.delete_point(P("2341"), 1) == P("231")
    assert pp.delete_point(P("21"), 1) == P("1")
    with pytest.raises(ValueError):
        pp.delete_point(P("21"), 3)


def test_all_patterns():
    assert [str(x) for x in pp.all_patterns(pp.natural_cycle(5), 3)] == ["123", "231"]
    assert [str(x) for x in pp.all_patterns(pp.descending(5), 3)] == ["321"]
    assert sorted(str(x) for x in pp.all_patterns(P("1543276"), 6)) == [
        "143265",
        "154326",
        "432165",
    ]
    with pytest.raises(ValueError):
        pp.all_patterns(P("231"), 4)


def test_involves():
    assert pp.involves(P("21"), P("2341"))
    assert not pp.involves(P("321"), P("2341"))
    assert pp.involves(P("2341"), P("2341"))
    assert not pp.involves(P("2341"), P("231"))


@given(st.permutations(list(range(1, 7))), st.integers(1, 6))
def test_all_patterns_agree_with_involves(word, length):
    p = Perm(word)
    pats = set(pp.all_patterns(p, length))
    for q in pats:
        assert pp.involves(q, p)


# ---------------------------------------------------------------------------
# symmetries, parity

def test_symmetry():
    assert pp.reverse(P("123")) == P("321")
    d = pp.descending(4)
    assert pp.reverse(P("2341")) == pp.compose(P("2341"), d)
    assert pp.complement(P("2341")) == pp.compose(d, P("2341"))


def test_parity():
    assert pp.parity(P("2341")) == "odd"
    assert pp.parity(P("3412")) == "even"
    # the reversal word is even exactly when its inversion count n(n-1)/2 is,
    # i.e. when n is 0 or 1 mod 4
    for n in range(1, 13):
        expected = n % 4 in (0, 1)
        assert (pp.parity(pp.descending(n)) == "even") == expected, n


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_parity_multiplicative(w1, w2):
    a, b = Perm(w1), Perm(w2)
    assert (pp.parity(pp.compose(a, b)) == "even") == (pp.parity(a) == pp.parity(b))


# ---------------------------------------------------------------------------
# jumps

def test_jumps():
    assert [tuple(j) for j in pp.jumps(P("1543276"))] == [(1, 5), (2, 7)]
    assert pp.jumps(pp.ascending(6)) == ()
    assert pp.jumps(pp.descending(6)) == ()
    # the wraparound pair of a cycle power is a jump
    assert [tuple(j) for j in pp.jumps(P("2341"))] == [(1, 4)]
    assert [tuple(j) for j in pp.jumps(P("2154376"))] == [(1, 5), (3, 7)]


def test_adjacent_pattern_quotient():
    assert pp.adjacent_pattern_quotient(P("2413"), 1) == P("132")
    for i in range(1, 5):
        assert pp.adjacent_pattern_quotient(pp.ascending(5), i) == pp.ascending(4)
        assert pp.adjacent_pattern_quotient(pp.descending(5), i) == pp.ascending(4)
    with pytest.raises(ValueError):
        pp.adjacent_pattern_quotient(P("2413"), 4)


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 5))))
def test_symmetries_preserve_involvement(w_big, w_small):
    pi, tau = Perm(w_big), Perm(w_small)
    base = pp.involves(tau, pi)
    assert pp.involves(pp.reverse(tau), pp.reverse(pi)) == base
    assert pp.involves(pp.complement(tau), pp.complement(pi)) == base
    assert pp.involves(pp.inverse(tau), pp.inverse(pi)) == base


# ---------------------------------------------------------------------------
# pattern extraction against a reduction defined here

def _rank_by_sorting(values):
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def _reference_patterns(word, length):
    return {
        _rank_by_sorting([word[i] for i in positions])
        for positions in itertools.combinations(range(len(word)), length)
    }


def _words_up_to(n):
    return [w for k in range(1, n + 1) for w in itertools.permutations(range(1, k + 1))]


def test_pattern_extraction_matches_the_reference():
    # every permutation of degree <= 6 at every length: all_patterns and
    # pat_set give the reference patterns, involves is membership in them;
    # the tau tried are every word of degree <= 4, every reference pattern,
    # and the identity and reversal of every degree up to one past pi's
    small_taus = _words_up_to(4)
    for word in _words_up_to(6):
        n = len(word)
        pi = Perm(word)
        by_length = {k: _reference_patterns(word, k) for k in range(1, n + 2)}
        assert by_length[n + 1] == set()
        for k in range(1, n + 1):
            expected = sorted(by_length[k])
            assert [q.word for q in pp.all_patterns(pi, k)] == expected, (word, k)
            assert pp.pat_set(pp.PermSet(n, [word]), k).word_set == set(expected), (word, k)
        taus = set(small_taus).union(*by_length.values())
        for k in range(1, n + 2):
            taus.update({tuple(range(1, k + 1)), tuple(range(k, 0, -1))})
        for tau in taus:
            assert pp.involves(Perm(tau), pi) == (tau in by_length.get(len(tau), ())), (tau, word)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pat_set_of_many_words_is_the_union_of_their_patterns(n):
    words = sorted(itertools.permutations(range(1, n + 1)))
    for start in range(0, len(words), 7):
        chunk = words[start:start + 7]
        for k in range(1, n + 1):
            expected = set().union(*(_reference_patterns(w, k) for w in chunk))
            assert pp.pat_set(pp.PermSet(n, chunk), k).word_set == expected, (chunk, k)


def test_deletion_kernel_at_the_degree_limit():
    # the translate tables hold for every degree up to MAX_DEGREE, not only
    # for the small degrees the exhaustive tests above reach
    rng = random.Random(16)
    for n in range(14, MAX_DEGREE + 1):
        for _ in range(4):
            word = tuple(rng.sample(range(1, n + 1), n))
            for i, c in enumerate(word):
                literal = tuple(x - (x > c) for x in word if x != c)
                assert _delete_word(word, i) == literal, (word, i)
            for length in (1, 2, n - 1, n):
                assert _pattern_words([word], length) == _reference_patterns(word, length)
                positions = sorted(rng.sample(range(1, n + 1), length))
                expected = _rank_by_sorting([word[i - 1] for i in positions])
                assert pp.pattern(Perm(word), positions).word == expected, (word, positions)
    # words shorter than the pattern length contribute nothing
    mixed = [tuple(rng.sample(range(1, k + 1), k)) for k in (3, 9, 15, 16)]
    for length in (4, 10, 16):
        expected = set().union(*(_reference_patterns(w, length) for w in mixed))
        assert _pattern_words(mixed, length) == expected, length
