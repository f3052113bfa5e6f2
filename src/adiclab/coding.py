"""Basic blocks, symbol censuses, language approximation, and complexity.

The basic block at (x, y) is the word over {a, b} built by concatenating
the two parent blocks in the order the bit at (x, y) dictates; row and
column vertices carry the one-letter blocks "a" and "b".  Blocks of the
k-coding follow the same recurrence down to the cylinder ids at level k.
The language of an ordering is approximated from below by the set of
fixed-length windows seen in basic blocks up to a level bound; every
block adds only the windows across its concatenation junction, built
from the suffix of its first child and the prefix of its second, so no
block is materialized.
"""

import itertools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core import (OrderingTable, PathPrefix, Vertex, binomial,
                   column_size, explicit_ordering, minimal_continuation, rank)
from .errors import InputError, ResourceCap

DEFAULT_MEMORY_CAP = 2 << 30  # bytes of memoized block text
BIT_BUDGET = 20  # free bits a restricted-block enumeration may vary


class CylSymbol(NamedTuple):
    """Name of the s-th path (in xi order) from the root to (k-m, m)."""

    k: int
    m: int
    s: int


def cyl_offsets(k: int):
    """Start index of each m class when the 2^k symbols are numbered."""
    offs = [0]
    for m in range(k + 1):
        offs.append(offs[-1] + binomial(k, m))
    return offs


#: Base words of the letter coding, at (1, 0) and (0, 1).
LETTERS = ("a", "b")

#: Base words of the k-coding, indexed by k <= 8: the ids of the paths to
#: each level-k vertex (k - m, m), listed by m.
CYLINDER_IDS = tuple(
    tuple(bytes(range(offs[m], offs[m + 1])) for m in range(len(offs) - 1))
    for offs in map(cyl_offsets, range(9)))


class BlockStore:
    """Memo of the basic blocks of one ordering, under one byte budget.

    A block is the concatenation of the blocks at the two parents of its
    vertex, in `OrderingTable.parents` order, down to base words at one
    level k: `base[m]` is the word at (k - m, m), and the boundary
    vertices above level k repeat the words at (k, 0) and (0, k).
    `LETTERS` is the base of the letter blocks; `CYLINDER_IDS[k]` is the
    base of the k-coding.
    Blocks over every base share one memo, and each insert is checked
    against `max_bytes`.  Construction runs from an explicit stack, one
    thread at a time.
    """

    def __init__(self, xi: OrderingTable, max_bytes: int = DEFAULT_MEMORY_CAP):
        self.xi = xi
        self.max_bytes = max_bytes
        self.bytes_used = 0
        self._memos = {}  # base -> {(x, y): block}
        self._build_lock = threading.Lock()

    def block(self, x: int, y: int, base: tuple = LETTERS):
        """The block at (x, y) over `base`; its length is C(x+y, x) when
        (x, y) lies above the base level."""
        if x < 0 or y < 0 or (x == 0 and y == 0):
            raise ValueError(f"no basic block at ({x}, {y})")
        k = len(base) - 1
        if x + y < k:
            raise InputError(f"({x},{y}) is below level {k}")
        if y == 0:
            return base[0]
        if x == 0:
            return base[k]
        if x + y == k:
            return base[y]
        memo = self._memos.get(base)
        if memo is not None and (x, y) in memo:
            return memo[(x, y)]
        with self._build_lock:
            return self._build(x, y, base)

    def _build(self, x, y, base):
        memo = self._memos.setdefault(base, {})
        k = len(base) - 1
        parents = self.xi.parents
        stack = [(x, y)]
        while stack:
            u, v = stack[-1]
            if (u, v) in memo:
                stack.pop()
                continue
            parts = []
            for p, q in parents(u, v):
                if q == 0:
                    parts.append(base[0])
                elif p == 0:
                    parts.append(base[k])
                elif p + q == k:
                    parts.append(base[q])
                elif (p, q) in memo:
                    parts.append(memo[(p, q)])
                else:
                    stack.append((p, q))
            if len(parts) == 2:
                word = parts[0] + parts[1]
                used = self.bytes_used + len(word)
                if used > self.max_bytes:
                    raise ResourceCap(
                        f"block memo would exceed {self.max_bytes} bytes")
                self.bytes_used = used
                memo[(u, v)] = word
                stack.pop()
        return memo[(x, y)]


def block_store(xi: OrderingTable, max_bytes: Optional[int] = None) -> BlockStore:
    """The store attached to xi (created on first use)."""
    store = getattr(xi, "_block_store", None)
    if store is None:
        store = BlockStore(xi, DEFAULT_MEMORY_CAP if max_bytes is None
                           else max_bytes)
        xi._block_store = store
    elif max_bytes is not None:
        store.max_bytes = max_bytes
    return store


def basic_block(xi: OrderingTable, x: int, y: int) -> str:
    """The level x+y basic block at (x, y); length C(x+y, x)."""
    return block_store(xi).block(x, y)


def basic_block_k(xi: OrderingTable, k: int, x: int, y: int) -> tuple:
    """Basic block at (x, y) over the 2^k symbols of the k-coding.

    The tuple holds one pointer per symbol; it must fit in the block
    store's budget beside the memo, but is not charged to it.
    """
    word = block_word_k(xi, k, x, y)
    store = block_store(xi)
    if store.bytes_used + 8 * len(word) > store.max_bytes:
        raise ResourceCap(f"{len(word)} symbols at 8 bytes each would exceed "
                          f"the {store.max_bytes}-byte block budget")
    # the symbols in id order: by m, then s
    syms = [CylSymbol(k, m, s) for m in range(k + 1)
            for s in range(1, binomial(k, m) + 1)]
    return tuple(map(syms.__getitem__, word))


def block_word_k(xi: OrderingTable, k: int, x: int, y: int) -> bytes:
    """Same block with symbols packed as small integer ids (k <= 8)."""
    if k < 1 or k > 8:
        raise ValueError("1 <= k <= 8")
    return block_store(xi).block(x, y, CYLINDER_IDS[k])


def symbol_census(w: str):
    """Letter counts of w plus the vertex they pin down, if any.

    A block at interior (x, y) has C(x+y-1, x-1) a's and C(x+y-1, y-1)
    b's; pure-letter words are attributed to the boundary row of their
    length.
    """
    ca = w.count("a")
    cb = w.count("b")
    if ca + cb != len(w):
        raise ValueError("alphabet must be {a, b}")
    if not w:
        return 0, 0, None
    if cb == 0:
        return ca, 0, Vertex(ca, 0)
    if ca == 0:
        return 0, cb, Vertex(0, cb)
    if ca == 1:
        return ca, cb, Vertex(1, cb)
    if cb == 1:
        return ca, cb, Vertex(ca, 1)
    total = ca + cb
    n = 4
    while n * (n - 1) // 2 <= total:
        if (n * ca) % total == 0:
            x = n * ca // total
            if 2 <= x <= n - 2 and binomial(n - 1, x - 1) == ca \
                    and binomial(n - 1, n - x - 1) == cb:
                return ca, cb, Vertex(x, n - x)
        n += 1
    return ca, cb, None


def iter_restricted_blocks(x: int, y: int):
    """Yield (bits, block) over all restricted orderings of the (x, y) box.

    Restricted means the rows into (u, 1) and (1, v) are ordered left to
    right, which is the explicit table's default bit 0, so only the bits
    at (u, v) with u, v >= 2 vary.
    """
    if x < 1 or y < 1:
        raise ValueError("x, y >= 1")
    free = [(u, v) for u in range(2, x + 1) for v in range(2, y + 1)]
    if len(free) > BIT_BUDGET:
        raise ResourceCap(f"{len(free)} free bits exceed budget {BIT_BUDGET}")
    for choice in itertools.product((0, 1), repeat=len(free)):
        bits = dict(zip(free, choice))
        yield bits, basic_block(explicit_ordering(bits, x + y), x, y)


def enumerate_blocks(x: int, y: int) -> set:
    """All basic blocks at (x, y) over the restricted orderings."""
    return {word for _, word in iter_restricted_blocks(x, y)}


def _window_levels(xi: OrderingTable, n: int):
    """Yield the n-windows of all basic blocks up to level 1, 2, ...

    One set grows from level to level and is yielded after each.  `row[x]`
    is the (head, tail) of the block at (x, lvl - x): its first and last
    n - 1 letters, or the whole block when it is shorter; only the row of
    the level below is kept while a level is built.  Every block adds
    only the windows across its junction, built from the tail of the first
    child and the head of the second: a window inside a child was added
    with that child, and one across the junction takes at most n - 1
    letters from each side.  Parent order is read through `xi.parents`.
    """
    if n < 1:
        raise ValueError("n >= 1")
    m = n - 1
    a, b = ("a"[:m],) * 2, ("b"[:m],) * 2  # the boundary blocks
    words = {"a", "b"} if n == 1 else set()
    row = [b, a]
    yield words
    parents = xi.parents
    for lvl in itertools.count(2):
        below, row = row, [b]
        for x in range(1, lvl):
            (x1, _), (x2, _) = parents(x, lvl - x)
            (h1, t1), (h2, t2) = below[x1], below[x2]
            text = t1 + h2
            for i in range(len(text) - m):
                words.add(text[i:i + n])
            row.append(((h1 + h2)[:m], (t1 + t2)[-m:] if m else ""))
        row.append(a)
        yield words


def language_words(xi: OrderingTable, n: int, L: int) -> set:
    """All n-windows seen in basic blocks up to level L.

    This under-approximates the language of the coding subshift (junctions
    between different columns of an orbit are not enumerated) and is
    monotone nondecreasing in L.
    """
    if L < 1:
        raise ValueError("L >= 1")
    return next(itertools.islice(_window_levels(xi, n), L - 1, None))


def stabilized_complexity(xi: OrderingTable, n: int, max_level: int):
    """Scan levels until the window count is flat over three levels.

    Zero-count plateaus (levels too shallow for any n-window) do not
    count as stabilization.  Returns (count, level reached, stabilized).
    """
    if max_level < 1:
        raise ValueError("max_level >= 1")
    counts = []
    for lvl, words in zip(range(1, max_level + 1), _window_levels(xi, n)):
        counts.append(len(words))
        if (len(counts) >= 3 and counts[-1] > 0
                and counts[-1] == counts[-2] == counts[-3]):
            return counts[-1], lvl, True
    return counts[-1], max_level, False


@dataclass
class PairSeparation:
    path_a: str
    path_b: str
    coordinate: Optional[int]  # None when not separated within the window
    window: tuple


@dataclass
class FaithfulnessReport:
    k: int
    level: int
    delta: int
    pairs: list = field(default_factory=list)

    @property
    def total(self):
        return len(self.pairs)

    @property
    def separated(self):
        return sum(1 for p in self.pairs if p.coordinate is not None)

    @property
    def unseparated(self):
        return [p for p in self.pairs if p.coordinate is None]

    @property
    def all_separated(self):
        return self.separated == self.total


def faithfulness_probe(xi: OrderingTable, L: int, k: int,
                       delta: int) -> FaithfulnessReport:
    """Try to separate every pair of distinct level-L paths by k-codings.

    Each path is extended to level L + delta by its minimal continuation;
    the two coding sequences are compared over the largest window around
    time 0 that stays inside both columns.  The separation coordinate is
    reported per pair; NOT-SEPARATED pairs carry coordinate None.
    """
    if k > L:
        raise ValueError("k <= L required")
    if delta < 0:
        raise ValueError("delta >= 0")
    deep = L + delta
    paths = [PathPrefix(s) for s in itertools.product((0, 1), repeat=L)]
    extended = [minimal_continuation(xi, p, deep) for p in paths]
    codings = {}  # the k-block of each column: one cylinder id per path
    # each path's column coding, rank and steps left in the column, and
    # its word, computed once before the pair loop
    placed = []
    for e in extended:
        v = e.terminal
        column = codings.get(v)
        if column is None:
            column = block_word_k(xi, k, v.x, v.y)
            assert len(column) == column_size(v)
            codings[v] = column
        r = rank(xi, e)
        placed.append((column, r, len(column) - r))
    words = [p.word() for p in paths]
    report = FaithfulnessReport(k=k, level=L, delta=delta)
    pairs = report.pairs
    for i, (si, ri, fi) in enumerate(placed):
        wi = words[i]
        for j in range(i + 1, len(placed)):
            sj, rj, fj = placed[j]
            back = min(ri, rj)
            fwd = min(fi, fj)
            wa = si[ri - back:ri + fwd]
            wb = sj[rj - back:rj + fwd]
            coord = None
            if wa != wb:
                # report the separation coordinate closest to time 0
                for d in range(max(back, fwd)):
                    if d < fwd and wa[back + d] != wb[back + d]:
                        coord = d
                        break
                    if d < back and wa[back - 1 - d] != wb[back - 1 - d]:
                        coord = -1 - d
                        break
            pairs.append(PairSeparation(wi, words[j], coord, (-back, fwd - 1)))
    return report
