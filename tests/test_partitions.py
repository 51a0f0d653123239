import itertools
import random

import pytest

import permpat as pp
from permpat import partitions as parts

WORKED = pp.parse_partition("1,2,3,7,8,9,10|4,5,6,12,13,14|11")


def test_parse_and_canonical_form():
    p = pp.parse_partition("1,2|3")
    assert p.blocks == ((1, 2), (3,))
    assert pp.parse_partition("2,1|3") == p
    assert pp.format_partition(p) == "1,2|3"
    assert pp.parse_partition(pp.format_partition(WORKED)) == WORKED


def test_parse_errors():
    with pytest.raises(ValueError):
        pp.parse_partition("1|1,2")
    with pytest.raises(ValueError):
        pp.parse_partition("1,3")
    with pytest.raises(ValueError):
        pp.parse_partition("1,2||3")
    with pytest.raises(ValueError):
        pp.parse_partition("1,x|2")
    with pytest.raises(ValueError, match="nonempty"):
        pp.Partition.from_blocks([[1], []])
    with pytest.raises(ValueError, match="exactly once"):
        pp.Partition.from_blocks([[1, 1, 2], [3]])


def test_lattice_operations():
    whole = pp.parse_partition("1,2,3")
    split = pp.parse_partition("1,2|3")
    assert pp.meet(whole, split) == split
    assert pp.join(pp.parse_partition("1,2|3"), pp.parse_partition("1|2,3")) == whole
    d4 = pp.parse_partition("1,4|2,3")
    assert pp.refines(d4, d4)
    assert pp.refines(split, whole)
    assert not pp.refines(whole, split)
    with pytest.raises(ValueError):
        pp.meet(whole, d4)


def test_named_partitions():
    assert pp.end_blocks(7, 2, 3) == pp.parse_partition("1,2|5,6,7|3|4")
    with pytest.raises(ValueError):
        pp.end_blocks(4, 3, 2)


def test_max_intervals():
    assert pp.max_intervals(WORKED) == pp.parse_partition(
        "1,2,3|4,5,6|7,8,9,10|11|12,13,14"
    )
    interval = pp.parse_partition("1,2|3,4,5")
    assert pp.max_intervals(interval) == interval
    assert pp.max_intervals(pp.parse_partition("1,3|2,4")) == pp.parse_partition("1|2|3|4")


def test_derive_worked_example():
    assert pp.derive(WORKED) == pp.parse_partition(
        "1,2,3|4|5,6|7|8,9,10|11|12|13,14,15"
    )


def test_derive_small_cases():
    n = 5
    whole = parts.Partition.from_blocks([range(1, n + 1)])
    assert pp.derive(whole) == parts.Partition.from_blocks([range(1, n + 2)])
    assert pp.derive(pp.parse_partition("1,2|3,4")) == pp.parse_partition("1,2|3|4,5")


def test_derive_iter():
    assert pp.derive_iter(WORKED, 1) == pp.derive(WORKED)
    assert pp.derive_iter(pp.parse_partition("1,2,3|4,5,6"), 2) == pp.parse_partition(
        "1,2,3|4|5|6,7,8"
    )
    whole = parts.Partition.from_blocks([range(1, 5)])
    assert pp.derive_iter(whole, 3) == parts.Partition.from_blocks([range(1, 8)])
    with pytest.raises(ValueError):
        pp.derive_iter(whole, 0)


def test_reverse_partition():
    assert pp.reverse_partition(pp.parse_partition("1,2|3")) == pp.parse_partition("2,3|1")
    delta = pp.parse_partition("1,6|2,5|3,4")
    assert pp.reverse_partition(delta) == delta
    assert pp.reverse_partition(pp.end_blocks(7, 2, 3)) == pp.parse_partition(
        "6,7|1,2,3|4|5"
    )


def test_interwoven():
    assert pp.interwoven(pp.parse_partition("1,3,5|2,4,6"), 1, 6)
    p = pp.parse_partition("1,3|2,4|5,6")
    assert pp.interwoven(p, 1, 4)
    assert not pp.interwoven(p, 1, 6)
    # a stretch of singleton blocks is interwoven with blocks of size one
    q = pp.parse_partition("1|2|3,4,5")
    assert pp.interwoven(q, 1, 2)
    with pytest.raises(ValueError):
        pp.interwoven(p, 4, 2)


def test_mu():
    assert pp.mu(WORKED) == 4
    singles = parts.Partition.from_blocks([(i,) for i in range(1, 6)])
    assert pp.mu(singles) == 1
    assert pp.mu_ab(WORKED, 1, 1) == 4
    assert pp.mu_ab(WORKED, 3, 3) == 4
    assert pp.mu_ab(pp.parse_partition("1,2,3|4"), 1, 1) == 3


def test_interwoven_generators():
    gens = pp.interwoven_generators(pp.parse_partition("1,3|2,4|5,6"))
    assert [str(g) for g in gens] == ["4321567"]
    gens = pp.interwoven_generators(pp.parse_partition("1,3,5|2,4,6"))
    assert [str(g) for g in gens] == [str(pp.natural_cycle(7))]
    assert pp.interwoven_generators(pp.parse_partition("1,2|3,4")) == ()
    suffix = pp.interwoven_generators(pp.parse_partition("1,2|3,5|4,6"))
    assert [str(g) for g in suffix] == ["1237654"]
    with pytest.raises(ValueError):
        pp.interwoven_generators(pp.parse_partition("1|2,3"))


# ---------------------------------------------------------------------------
# lattice operations against their definitions

def _all_partitions(n):
    """Every partition of 1..n, as block-label vectors (restricted growth strings)."""
    out = [()]
    for _ in range(n):
        out = [lab + (c,) for lab in out for c in range(max(lab, default=-1) + 2)]
    return out


def _label_refines(p, q):
    # p refines q iff the q-label is a function of the p-label
    return len(set(zip(p, q))) == len(set(p))


def _to_partition(labels):
    blocks = {}
    for x, c in enumerate(labels, start=1):
        blocks.setdefault(c, []).append(x)
    return pp.Partition.from_blocks(blocks.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_join_and_meet_match_their_definitions(n):
    # join: the common coarsening that refines every other one; meet: the
    # common refinement that every other one refines
    labels = _all_partitions(n)
    parts_by_label = {lab: _to_partition(lab) for lab in labels}
    assert len(set(parts_by_label.values())) == {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}[n]
    below = {p: [q for q in labels if _label_refines(q, p)] for p in labels}
    above = {p: [q for q in labels if _label_refines(p, q)] for p in labels}
    for p in labels:
        for q in labels:
            ups = set(above[p]) & set(above[q])
            (finest,) = [r for r in ups if all(_label_refines(r, s) for s in ups)]
            downs = set(below[p]) & set(below[q])
            (coarsest,) = [r for r in downs if all(_label_refines(s, r) for s in downs)]
            pp_p, pp_q = parts_by_label[p], parts_by_label[q]
            assert pp.join(pp_p, pp_q) == parts_by_label[finest], (p, q)
            assert pp.meet(pp_p, pp_q) == parts_by_label[coarsest], (p, q)


# ---------------------------------------------------------------------------
# the partition kernel against literal references

def _from_blocks_reference(blocks):
    norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
    if not norm or not norm[0]:
        raise ValueError("blocks must be nonempty")
    flat = [x for b in norm for x in b]
    n = len(flat)
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError(f"blocks must partition 1..n exactly once: {norm}")
    return pp.Partition(n, norm)


def _max_intervals_reference(p):
    runs = []
    for b in p.blocks:
        start = 0
        for i in range(1, len(b)):
            if b[i] != b[i - 1] + 1:
                runs.append(b[start:i])
                start = i
        runs.append(b[start:])
    return pp.Partition(p.size, tuple(sorted(runs)))


def _derive_reference(p):
    n = p.size
    blocks = []
    for run in _max_intervals_reference(p).blocks:
        a, b = run[0], run[-1]
        if a == 1 and b == n:
            blocks.append(tuple(range(1, n + 2)))
        elif a == 1:
            blocks.append(run)
        elif b == n:
            blocks.append((a,))
            blocks.append(tuple(range(a + 1, n + 2)))
        else:
            blocks.append((a,))
            if a < b:
                blocks.append(tuple(range(a + 1, b + 1)))
    return _from_blocks_reference(blocks)


def _meet_reference(p, q):
    pi, qi = p.block_index, q.block_index
    cells = {}
    for x in range(1, p.size + 1):
        cells.setdefault((pi[x], qi[x]), []).append(x)
    return _from_blocks_reference(cells.values())


def _interwoven_reference(p, a, b):
    # every divisor k > 1 of the span tried as the step
    span = b - a + 1
    return any(
        all(tuple(range(a + i, b + 1, k)) in p.blocks for i in range(k))
        for k in range(2, span + 1)
        if span % k == 0
    )


def _outcome(build, blocks):
    try:
        return build(blocks)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_kernel_matches_references(n):
    rng = random.Random(n)
    previous = None
    for labels in _all_partitions(n):
        blocks = {}
        for x, c in enumerate(labels, start=1):
            blocks.setdefault(c, []).append(x)
        shuffled = [rng.sample(b, len(b)) for b in blocks.values()]
        rng.shuffle(shuffled)
        p = pp.Partition.from_blocks(shuffled)
        assert p == _from_blocks_reference(shuffled), shuffled
        assert p == pp.Partition.from_blocks(tuple(map(tuple, blocks.values())))
        assert pp.max_intervals(p) == _max_intervals_reference(p), labels
        derived = pp.derive(p)
        assert derived == _derive_reference(p), labels
        assert pp.max_intervals(derived) == _max_intervals_reference(derived), labels
        if previous is not None:
            assert pp.meet(p, previous) == _meet_reference(p, previous), labels
        previous = p
        reflected = [[n + 1 - x for x in b] for b in blocks.values()]
        assert pp.reverse_partition(p) == pp.Partition.from_blocks(reflected), labels
        for a, b in itertools.combinations(range(1, n + 1), 2):
            assert pp.interwoven(p, a, b) == _interwoven_reference(p, a, b), (labels, a, b)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([], "blocks must be nonempty"),
        ([[1], []], "blocks must be nonempty"),
        ([[1, 1, 2], [3]], "blocks must partition 1..n exactly once: ((1, 1, 2), (3,))"),
        ([[3], [2]], "blocks must partition 1..n exactly once: ((2,), (3,))"),
        ([[4, 1], [2]], "blocks must partition 1..n exactly once: ((1, 4), (2,))"),
        ([(2, 1), [1]], "blocks must partition 1..n exactly once: ((1,), (1, 2))"),
    ],
)
def test_from_blocks_errors_match_the_reference(blocks, message):
    assert _outcome(pp.Partition.from_blocks, blocks) == message
    assert _outcome(_from_blocks_reference, blocks) == message
