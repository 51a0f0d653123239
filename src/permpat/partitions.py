"""Set partitions of {1..n} and the interval/derivative calculus on them.

Partitions are value types: blocks are stored sorted, ordered by their minimum
element, so structural equality and hashing are canonical.  The text format is
"1,2,3|4,5|6" (order-insensitive; canonicalised on parse).
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .perms import Perm, ajd, dja, natural_cycle


class Partition(NamedTuple):
    size: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        # an empty block sorts first; disjoint blocks sort by their minimum
        norm = tuple(sorted(map(tuple, map(sorted, blocks))))
        if not norm or not norm[0]:
            raise ValueError("blocks must be nonempty")
        flat = sorted(chain.from_iterable(norm))
        n = len(flat)
        if flat != list(range(1, n + 1)):
            raise ValueError(f"blocks must partition 1..n exactly once: {norm}")
        return cls(n, norm)

    @property
    def block_index(self) -> dict[int, int]:
        """Map element -> index of its block in ``blocks``."""
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.block_index[x]]

    def has_trivial_block(self) -> bool:
        return any(len(b) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return format_partition(self)


def parse_partition(text: str) -> Partition:
    """Parse "1,2,3|4,5|6"; every element of 1..n must occur exactly once."""
    blocks = []
    for chunk in text.strip().split("|"):
        items = [t for t in chunk.replace(",", " ").split() if t]
        if not items:
            raise ValueError(f"empty block in {text!r}")
        try:
            blocks.append([int(t) for t in items])
        except ValueError:
            raise ValueError(f"malformed block {chunk!r}") from None
    return Partition.from_blocks(blocks)


def format_partition(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks)


# ---------------------------------------------------------------------------
# lattice operations

def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``p`` lies inside a block of ``q``."""
    _check_sizes(p, q)
    qi = q.block_index
    return all(len({qi[x] for x in b}) == 1 for b in p.blocks)


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: intersect blocks pairwise."""
    _check_sizes(p, q)
    pi, qi = p.block_index, q.block_index
    cells: dict[tuple[int, int], list[int]] = {}
    for x in range(1, p.size + 1):
        cells.setdefault((pi[x], qi[x]), []).append(x)
    # filled in ascending x: each cell is sorted and first met at its minimum
    return Partition(p.size, tuple(map(tuple, cells.values())))


def join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening: the congruence of both block relations."""
    _check_sizes(p, q)
    pairs = [(b[0], x) for part in (p, q) for b in part.blocks for x in b[1:]]
    return congruence(p.size, pairs, ())


def congruence(
    n: int, pairs: Iterable[tuple[int, int]], words: Sequence[Sequence[int]]
) -> Partition:
    """The finest partition of 1..n that joins every pair and that each word
    (a permutation in one-line form) maps block onto block.  Union-find: each
    merge of x and y queues (w(x), w(y)) for every word w."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
            for w in words:
                queue.append((w[x - 1], w[y - 1]))
    blocks: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        blocks.setdefault(find(x), []).append(x)
    return Partition.from_blocks(blocks.values())


def _block_fixing(p: Partition, words: Iterable[bytes]) -> set[bytes]:
    # w maps each block onto itself when it keeps every point's block label
    labels = bytes(map(p.block_index.__getitem__, range(1, p.size + 1)))
    table = (b"\0" + labels).ljust(256, b"\0")
    return {w for w in words if w.translate(table) == labels}


def _check_sizes(p: Partition, q: Partition) -> None:
    if p.size != q.size:
        raise ValueError(f"ground-set size mismatch: {p.size} vs {q.size}")


# ---------------------------------------------------------------------------
# named partitions

def end_blocks(n: int, a: int, b: int) -> Partition:
    """Blocks [1,a] and [n-b+1,n] with everything between left as singletons."""
    if not (1 <= a and 1 <= b and a + b <= n):
        raise ValueError(f"need 1 <= a, 1 <= b, a + b <= n; got n={n}, a={a}, b={b}")
    blocks = [tuple(range(1, a + 1)), tuple(range(n - b + 1, n + 1))]
    blocks += [(i,) for i in range(a + 1, n - b + 1)]
    return Partition.from_blocks(blocks)


# ---------------------------------------------------------------------------
# interval structure and the derivative

def max_intervals(p: Partition) -> Partition:
    """Coarsest interval partition refining ``p``: maximal runs of consecutive
    integers that lie in one block.  A block that is an interval is one run,
    and a partition of intervals is its own answer."""
    runs = []
    for b in p.blocks:
        if b[-1] - b[0] + 1 == len(b):
            runs.append(b)
            continue
        start = 0
        for i in range(1, len(b)):
            if b[i] != b[i - 1] + 1:
                runs.append(b[start:i])
                start = i
        runs.append(b[start:])
    if len(runs) == len(p.blocks):
        return p
    runs.sort()
    return Partition(p.size, tuple(runs))


def derive(p: Partition) -> Partition:
    """The derived partition on {1..n+1}.

    Each maximal interval block [a,b] of ``p`` contributes:
      - [a,b] itself when a = 1 and b < n;
      - {a} (and [a+1,b] when a < b) when a > 1 and b < n;
      - {a} and [a+1,n+1] when a > 1 and b = n;
      - [1,n+1] when a = 1 and b = n.
    """
    n = p.size
    blocks: list[tuple[int, ...]] = []
    for run in max_intervals(p).blocks:
        a, b = run[0], run[-1]
        if a == 1:
            blocks.append(run if b < n else tuple(range(1, n + 2)))
        else:
            blocks.append((a,))
            if b == n:
                blocks.append(tuple(range(a + 1, n + 2)))
            elif a < b:
                blocks.append(run[1:])
    # the runs ascend, so the blocks are intervals of 1..n+1 in order
    return Partition(n + 1, tuple(blocks))


def derive_iter(p: Partition, i: int) -> Partition:
    """i-fold derivative, a partition of {1..n+i}."""
    if i < 1:
        raise ValueError("iteration count must be >= 1")
    for _ in range(i):
        p = derive(p)
    return p


def reverse_partition(p: Partition) -> Partition:
    """Each block mapped through x -> n + 1 - x."""
    n = p.size
    # a reversed block maps to an ascending one; disjoint blocks sort by minimum
    return Partition(n, tuple(sorted(tuple(n + 1 - x for x in reversed(b)) for b in p.blocks)))


def is_interval_partition(p: Partition) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def has_consecutive_nontrivial_blocks(p: Partition) -> bool:
    """True iff some t has t-1 and t in distinct blocks that both have size >= 2."""
    index = p.block_index
    for t in range(2, p.size + 1):
        bi, bj = index[t - 1], index[t]
        if bi != bj and len(p.blocks[bi]) > 1 and len(p.blocks[bj]) > 1:
            return True
    return False


# ---------------------------------------------------------------------------
# interwoven intervals

def interwoven(p: Partition, a: int, b: int) -> bool:
    """True iff [a,b] splits into k > 1 arithmetic progressions of step k that
    are all blocks of ``p``.  The progression from a is a's block, so k is
    the gap from a to the next point of that block, or the span when a is
    a singleton: only one step can work."""
    if not 1 <= a < b <= p.size:
        raise ValueError(f"need 1 <= a < b <= {p.size}, got [{a},{b}]")
    span = b - a + 1
    block = next(blk for blk in p.blocks if a in blk)
    i = block.index(a) + 1
    k = block[i] - a if i < len(block) else span
    if k < 2 or span % k:
        return False
    # at most 16 blocks: a scan of the tuple beats building a set
    return all(tuple(range(a + j, b + 1, k)) in p.blocks for j in range(k))


def interwoven_generators(p: Partition) -> tuple[Perm, ...]:
    """The degree-(n+1) permutations contributed by interwoven end intervals.

    For a partition with no trivial blocks: a one-jump block-reversal for an
    interwoven prefix [1,l] with l < n, its mirror for an interwoven suffix
    [m,n] with m > 1, and the natural cycle when the whole line is
    interwoven.  Without trivial blocks, distinct interwoven intervals cannot
    overlap, so there is at most one prefix and one suffix.
    """
    if p.has_trivial_block():
        raise ValueError("interwoven-end scan requires a partition with no trivial blocks")
    n = p.size
    prefix = [l for l in range(2, n) if interwoven(p, 1, l)]
    suffix = [m for m in range(2, n) if interwoven(p, m, n)]
    if len(prefix) > 1 or len(suffix) > 1:
        raise AssertionError(f"overlapping interwoven intervals in {p}")
    out = [dja(n + 1, l) for l in prefix] + [ajd(n + 1, n - m + 1) for m in suffix]
    if n >= 2 and interwoven(p, 1, n):
        out.append(natural_cycle(n + 1))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# block-size measures

def mu(p: Partition) -> int:
    """Largest size of a middle maximal-interval block (1 when there is none)."""
    return max(map(len, max_intervals(p).blocks[1:-1]), default=1)


def mu_ab(p: Partition, a: int, b: int) -> int:
    """``mu`` corrected by how far the end interval blocks exceed [1,a] and
    the length-b suffix."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    runs = max_intervals(p).blocks
    return max(mu(p), len(runs[0]) - a + 1, len(runs[-1]) - b + 1)
