import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import permpat as pp
from permpat import Perm
from permpat.perms import (
    MAX_DEGREE,
    _check_permutation,
    _compose_words,
    _delete_word,
    _inverse_word,
    _pattern_words,
)


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


@pytest.mark.parametrize("word", [(1, 1, 2), [1, 300], [0, -1], [1.0, 2.0], ("2", 1)])
def test_perm_refuses_a_non_permutation_with_its_values_shown(word):
    # a word is bytes, but a value bytes cannot hold is refused by the
    # permutation check, never by bytes' own range error
    message = f"not a permutation of 1..{len(word)}: {tuple(word)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Perm(word)


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


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: P("2a1"), "malformed one-line word: '2a1'"),
        (lambda: P("231", 4), "word has degree 3, expected 4"),
        (lambda: P("2,x,1"), "malformed token: 'x'"),
        (lambda: P("(1 x)", 3), "malformed token: 'x'"),
        (lambda: P("(1 2) 3", 3), "malformed cycle notation: '(1 2) 3'"),
        (lambda: pp.format_perm(P("21"), "latex"), "unknown notation: 'latex'"),
        (lambda: pp.delete_point(P("1"), 1), "cannot delete from a degree-1 permutation"),
    ],
    ids=["one-line", "degree", "token", "cycle-token", "cycle", "notation", "delete-degree-1"],
)
def test_text_and_deletion_refusals_are_worded(refused, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()


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


# ---------------------------------------------------------------------------
# the word kernels against their definitions over positions, kept here

def _compose_reference(f, g):
    return bytes(f[x - 1] for x in g)


def _inverse_reference(word):
    return bytes(word.index(v) + 1 for v in range(1, len(word) + 1))


def _jumps_reference(p):
    adjacent = {(min(x, y), max(x, y)) for x, y in zip(p.word, p.word[1:])}
    return tuple(sorted((a, b) for a, b in adjacent if a <= b - 2))


def test_word_kernels_match_their_references():
    # every word of degree 1..7; products of every pair up to degree 5, and
    # above it of each word with itself, its reversal, its inverse and one
    # fixed word of its degree
    rng = random.Random(7)
    for n in range(1, 8):
        words = list(map(bytes, itertools.permutations(range(1, n + 1))))
        fixed = bytes(rng.sample(range(1, n + 1), n))
        for w in words:
            inv = _inverse_reference(w)
            assert _inverse_word(w) == inv, w
            p = Perm(w)
            assert p == Perm(tuple(w)) and p.word == w
            assert pp.jumps(p) == _jumps_reference(p), w
            for g in words if n <= 5 else (w, w[::-1], inv, fixed):
                assert _compose_words(w, g) == _compose_reference(w, g), (w, g)
    for _ in range(50):
        f, g = (bytes(rng.sample(range(1, 17), 16)) for _ in range(2))
        assert _compose_words(f, g) == _compose_reference(f, g)
        assert _inverse_word(f) == _inverse_reference(f)


@pytest.mark.parametrize("word", [b"\1\1", b"\2\2\1", b"\0\1", b"\1\3"])
def test_perm_refuses_a_bytes_non_permutation_as_its_tuple_form(word):
    message = f"not a permutation of 1..{len(word)}: {tuple(word)!r}"
    for form in (word, tuple(word)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Perm(form)


def _permutation_check_outcome(word):
    """What ``_check_permutation`` does with ``word``: the exact type and
    value it returns, or the message it raises."""
    try:
        got = _check_permutation(word)
    except ValueError as exc:
        return "refused", str(exc)
    return type(got), got


def test_permutation_check_agrees_on_bytes_and_tuples():
    # every word of length 1..4 over the values 0..5, and 200 seeded
    # permutations of 1..16, every second one with one value overwritten:
    # given as bytes or as a tuple, a word is returned as exact bytes when
    # itertools.permutations lists it, and refused with its values otherwise
    cases = []
    for n in range(1, 5):
        listed = set(itertools.permutations(range(1, n + 1)))
        cases += [(w, w in listed) for w in itertools.product(range(6), repeat=n)]
    rng = random.Random(30)
    for i in range(200):
        w = rng.sample(range(1, 17), 16)
        if i % 2:
            at, value = rng.randrange(16), rng.randrange(256)
            cases.append((tuple(w[:at] + [value] + w[at + 1 :]), value == w[at]))
        else:
            cases.append((tuple(w), True))
    outcomes = {"accepted": 0, "refused": 0}
    for w, listed in cases:
        want = (bytes, bytes(w)) if listed else ("refused", f"not a permutation of 1..{len(w)}: {w!r}")
        assert _permutation_check_outcome(bytes(w)) == want, w
        assert _permutation_check_outcome(w) == want, w
        outcomes["accepted" if listed else "refused"] += 1
    assert outcomes["accepted"] > 100 and outcomes["refused"] > 1000, outcomes


@pytest.mark.parametrize("word", [b"", bytes(range(1, 18)), bytes(17)])
def test_bytes_permutation_check_refuses_the_degree_first(word):
    message = f"degree must be in 1..16, got {len(word)}"
    assert _permutation_check_outcome(word) == ("refused", message)
    assert _permutation_check_outcome(tuple(word)) == ("refused", message)


def test_bytes_permutation_check_returns_exact_bytes():
    class Sub(bytes):
        pass

    word = Sub(b"\2\3\1")
    got = _check_permutation(word)
    assert type(got) is bytes and got == word


@pytest.mark.parametrize("build", [pp.ascending, pp.descending, pp.natural_cycle])
def test_named_words_are_built_once_per_degree(build):
    for n in range(1, MAX_DEGREE + 1):
        assert build(n) is build(n)
    kept = build.cache_info().currsize
    for n in (0, MAX_DEGREE + 1):
        for _ in range(2):  # a refused degree is not kept, so it raises again
            with pytest.raises(ValueError, match=rf"^degree must be in 1\.\.16, got {n}$"):
                build(n)
    assert build.cache_info().currsize == kept


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
    return bytes(ordered.index(v) + 1 for v in values)


def _reference_patterns(word, length):
    return {
        _rank_by_sorting([word[i] for i in positions])
        for positions in itertools.combinations(range(len(word)), length)
    }


def _words_up_to(n):
    return [bytes(w) for k in range(1, n + 1) for w in itertools.permutations(range(1, k + 1))]


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
            taus.update({bytes(range(1, k + 1)), bytes(range(k, 0, -1))})
        for tau in taus:
            assert pp.involves(Perm(tau), pi) == (tau in by_length.get(len(tau), ())), (tau, word)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pat_set_of_many_words_is_the_union_of_their_patterns(n):
    words = sorted(map(bytes, itertools.permutations(range(1, n + 1))))
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
            word = bytes(rng.sample(range(1, n + 1), n))
            for i, c in enumerate(word):
                literal = bytes(x - (x > c) for x in word if x != c)
                assert _delete_word(word, i) == literal, (word, i)
            for length in (1, 2, n - 1, n):
                assert _pattern_words([word], length) == _reference_patterns(word, length)
                positions = sorted(rng.sample(range(1, n + 1), length))
                expected = _rank_by_sorting([word[i - 1] for i in positions])
                assert pp.pattern(Perm(word), positions).word == expected, (word, positions)
    # words shorter than the pattern length contribute nothing
    mixed = [bytes(rng.sample(range(1, k + 1), k)) for k in (3, 9, 15, 16)]
    for length in (4, 10, 16):
        expected = set().union(*(_reference_patterns(w, length) for w in mixed))
        assert _pattern_words(mixed, length) == expected, length
