"""Pascal graph geometry: edge orderings, finite paths and ranks.

Vertices are pairs (x, y) with level x + y; edges go from (x, y) to
(x+1, y) ("a" step) and to (x, y+1) ("b" step).  An ordering assigns one
bit to every interior vertex (x, y), x >= 1 and y >= 1: bit 1 means the
edge arriving from (x-1, y) is the smaller of the two incoming edges,
bit 0 means the edge arriving from (x, y-1) is the smaller.  Edges into
boundary vertices are both maximal and minimal.
"""

import json
import math
import struct
from functools import cache
from numbers import Real
from typing import NamedTuple

from .errors import InputError

# Every keyed stream of the package hashes with this one blake2b.  It is
# exactly the object hashlib.blake2b names (hashlib never takes blake2 from
# OpenSSL, and has no blake2b without _blake2), so there is no fallback;
# importing hashlib instead would also load OpenSSL's libcrypto, about
# 3.6 MB of RSS.
from _blake2 import blake2b

MIN = "min"
MAX = "max"

#: Marker returned when a boundary vertex (single incoming edge) is queried.
BOTH_EXTREMAL = "both-extremal"

A_STEP = 0  # (x, y) -> (x+1, y)
B_STEP = 1  # (x, y) -> (x, y+1)


class Vertex(NamedTuple):
    x: int
    y: int


#: C(n, k) as an exact integer; 0 when k > n, ValueError when n or k < 0.
binomial = math.comb


def column_size(v: Vertex) -> int:
    """Number of root paths to v."""
    return binomial(v.x + v.y, v.x)


class ValueRecord:
    """Base of the slotted value classes: each subclass names its fields
    in `__slots__` and sets them in `__init__`, after validating them.
    Instances compare equal, and hash, by their field values, so a field
    is never reassigned."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class PathPrefix(ValueRecord):
    """A finite edge path from the root, stored as a tuple of steps; its
    `len` is the path length."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        if steps.count(A_STEP) + steps.count(B_STEP) != len(steps):
            raise ValueError("steps must be 0 (a) or 1 (b)")
        self.steps = steps

    def __len__(self):
        return len(self.steps)

    @property
    def terminal(self) -> Vertex:
        b = sum(self.steps)
        return Vertex(len(self.steps) - b, b)

    def vertex_at(self, level: int) -> Vertex:
        b = sum(self.steps[:level])
        return Vertex(level - b, b)

    def word(self) -> str:
        """First-edge letters of the steps, e.g. 'aab'."""
        return "".join("ab"[s] for s in self.steps)

    def prefix(self, level: int) -> "PathPrefix":
        return PathPrefix(self.steps[:level])

    def extend(self, steps) -> "PathPrefix":
        return PathPrefix(self.steps + tuple(steps))

    @classmethod
    def from_word(cls, word: str) -> "PathPrefix":
        return cls(tuple("ab".index(c) for c in word))

    def __repr__(self):
        return f"PathPrefix({self.word()!r})"


def ordered_parents(x: int, y: int, bit) -> tuple:
    """The two parents of interior (x, y), smaller incoming edge first.

    Bit 0 puts the edge from (x, y-1) first, bit 1 the edge from (x-1, y).
    Every block recurrence concatenates along this order.
    """
    if bit == 0:
        return (x, y - 1), (x - 1, y)
    return (x - 1, y), (x, y - 1)


class OrderingTable:
    """Map from interior vertices to order bits.

    `_lookup(x, y)` gives the bit at an interior vertex.  Seeded and rule
    orderings memoize it with `functools.cache`, so its `cache_info()`
    counts their hits and misses; constant, explicit and tree bits cost
    less than a memo probe and are not memoized.  The path walks (rank,
    unrank, extreme paths, minimal continuations and the successor pivot)
    read it directly, and `parents`, at interior vertices only, serves
    the block recurrence, the language scan and the test oracles.  `spec`
    is the JSON document of the ordering (None when it has no JSON form)
    and `fingerprint` its canonical identity string.  The constructors
    below build the supported kinds: constant, seeded (counter-based hash
    of (seed, x, y)), explicit (finite map with a level bound), tree
    (binary-tree embedding), and rule (arbitrary total function, used for
    the named paper orderings).  Instances are immutable.
    """

    def __init__(self, lookup, spec, fingerprint):
        self._lookup = lookup
        self._spec = spec
        self._fingerprint = fingerprint
        self.kind = fingerprint.partition(":")[0]

    def bit(self, x: int, y: int):
        """Order bit at (x, y); BOTH_EXTREMAL for boundary vertices."""
        if x > 0 and y > 0:
            return self._lookup(x, y)
        if x < 0 or y < 0 or (x == 0 and y == 0):
            raise ValueError(f"no incoming edges at ({x}, {y})")
        return BOTH_EXTREMAL

    def parents(self, x: int, y: int) -> tuple:
        """Sources of the (minimal, maximal) incoming edges of interior
        (x, y); any other vertex is refused with a ValueError.

        A boundary vertex has one incoming edge and repeats its side's
        block, so no recurrence asks for its parents.
        """
        if x > 0 and y > 0:
            return ordered_parents(x, y, self._lookup(x, y))
        raise ValueError(f"({x}, {y}) is not an interior vertex")

    def fingerprint(self) -> str:
        """Canonical identity string, as the `complexity` command prints it."""
        return self._fingerprint

    def __repr__(self):
        return f"OrderingTable<{self._fingerprint}>"

    def to_json(self) -> str:
        if self._spec is None:
            raise ValueError(f"{self.kind} orderings have no JSON form")
        return json.dumps(self._spec, sort_keys=True)


def constant_ordering(bit: int) -> OrderingTable:
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, not {bit!r}")
    return OrderingTable(lambda x, y: bit, {"kind": "constant", "bit": bit},
                         f"constant:{bit}")


def check_seed(seed: int) -> None:
    """Refuse (ValueError) a seed that is not a u64: 0 to 2^64 - 1."""
    if type(seed) is not int:
        raise ValueError(f"the seed is an integer, not {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"the seed is an integer from 0 to 2^64 - 1, "
                         f"not {seed}")


def seeded_ordering(seed: int, bias: float = 0.5) -> OrderingTable:
    """Deterministic random ordering; `bias` is the probability of bit 0.

    The seed is a u64 (`check_seed`).  The bits depend on the bias only
    as a float, so the spec and the fingerprint carry `float(bias)`.
    """
    check_seed(seed)
    if isinstance(bias, bool) or not isinstance(bias, Real) \
            or not 0 <= bias <= 1:
        raise ValueError(f"the seed is an integer and the bias a probability, "
                         f"not {bias!r}")
    bias = float(bias)
    threshold = int(bias * 2.0**64)
    # one blake2b state holds the packed seed; each bit feeds (x, y) to a
    # copy, which hashes the same 24 bytes as (seed, x, y) packed at once
    keyed = blake2b(struct.pack("<Q", seed), digest_size=8)
    pack = struct.Struct("<QQ").pack
    from_bytes = int.from_bytes

    def bit(x, y):
        # Counter-based: a keyed hash of (seed, x, y), so lazy queries in
        # any order agree and parallel traversals are reproducible.
        h = keyed.copy()
        h.update(pack(x, y))
        return 0 if from_bytes(h.digest(), "little") < threshold else 1

    return OrderingTable(cache(bit),
                         {"kind": "seeded", "seed": seed, "bias": bias},
                         f"seeded:{seed}:{bias!r}")


def explicit_ordering(bits, max_level: int, default: int = 0) -> OrderingTable:
    """Finite table; unlisted interior vertices up to max_level get `default`."""
    if type(max_level) is not int:
        raise ValueError(f"the level bound maxLevel is an integer, "
                         f"not {max_level!r}")
    if max_level < 0:
        raise ValueError(f"the level bound maxLevel is at least 0, "
                         f"not {max_level}")
    if type(default) is not int or default not in (0, 1):
        raise ValueError(f"default is a bit, not {default!r}")
    bits = dict(bits)
    for (x, y), b in bits.items():
        if (any(type(v) is not int for v in (x, y, b)) or x < 1 or y < 1
                or x + y > max_level or b not in (0, 1)):
            raise ValueError(f"bad explicit bit ({x!r},{y!r})={b!r}")

    def lookup(x, y):
        if x + y > max_level:
            raise InputError(f"explicit table bounded at level {max_level}")
        return bits.get((x, y), default)

    items = sorted(bits.items())
    spec = {"kind": "explicit", "bits": [[x, y, b] for (x, y), b in items],
            "maxLevel": max_level, "default": default}
    listed = ",".join(f"{x}.{y}.{b}" for (x, y), b in items)
    return OrderingTable(lookup, spec,
                         f"explicit:{max_level}:{default}:{listed}")


def rule_ordering(rule, name: str) -> OrderingTable:
    return OrderingTable(cache(rule), None, f"rule:{name}")


#: Largest tree depth that `tree_embedding_ordering` accepts.
TREE_MAX_DEPTH = 10


def tree_embedding_ordering(depth: int) -> OrderingTable:
    """Ordering with an embedded binary tree made entirely of minimal edges.

    The tree reaches 2^d non-intersecting branches at level 2^(d+1) - 1 for
    each d <= depth, starting from two branches to (3, 0) and (1, 2) at
    level 3.  Each stage first spreads branch tips from every other vertex
    to every fourth vertex (b steps first, then a steps; tips never meet),
    then forks each tip in two.

    Each bit is computed from the stage geometry.  Bit 1 at (1, 2).  At
    level n = x + y >= 4, let top = 2^floor(log2 n) - 1, so the stage
    holding level n spans levels top + 1 .. 2 top + 1; the bit is 1 iff
    top < 2^depth, y = 0 (mod 4) and 2 (n - top) > y.  These 1-bits are
    the a steps of the branches as they spread and fork; every b step of
    the tree sets bit 0, as does every vertex off the tree, so every bit
    above level 2^(depth+1) - 1 is 0.
    """
    if type(depth) is not int or not 1 <= depth <= TREE_MAX_DEPTH:
        raise ValueError(f"tree depth must be between 1 and {TREE_MAX_DEPTH}, "
                         f"not {depth!r}")
    limit = 1 << depth

    def bit(x, y):
        n = x + y
        top = (1 << (n.bit_length() - 1)) - 1
        return int((x, y) == (1, 2) or (3 <= top < limit and y % 4 == 0
                                        and 2 * (n - top) > y))

    return OrderingTable(bit, {"kind": "tree", "depth": depth},
                         f"tree:depth{depth}")


def make_ordering(spec) -> OrderingTable:
    """Build a table from a JSON-style dict."""
    if not isinstance(spec, dict):
        raise ValueError('an ordering is a JSON object with a "kind" field')
    kind = spec["kind"]
    if kind == "constant":
        return constant_ordering(spec["bit"])
    if kind == "seeded":
        return seeded_ordering(spec["seed"], spec.get("bias", 0.5))
    if kind == "explicit":
        entries = spec["bits"]
        if not isinstance(entries, (list, tuple)):
            raise ValueError('explicit "bits" is a list of [x, y, b] triples')
        for entry in entries:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                    or any(type(v) is not int for v in entry)):
                raise ValueError(f'explicit "bits" entry {entry!r} is not '
                                 f'an [x, y, b] triple of integers')
        bits = {(x, y): b for x, y, b in entries}
        return explicit_ordering(bits, spec["maxLevel"], spec.get("default", 0))
    if kind == "tree":
        return tree_embedding_ordering(spec["depth"])
    raise ValueError(f"unknown ordering kind {kind!r}")


def _coordinates(v) -> tuple:
    """(x, y) of v; a ValueError unless it is a pair of ints >= 0."""
    x, y = v
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"the vertex v is a pair of integers, not {v!r}")
    if x < 0 or y < 0:
        raise ValueError(f"no incoming edges at ({x}, {y})")
    return x, y


def _reversed(xi: OrderingTable) -> OrderingTable:
    """xi with every bit flipped, so every column runs backwards and its
    adic map is the inverse of xi's; it has no JSON form."""
    lookup = xi._lookup
    return OrderingTable(lambda x, y: 1 - lookup(x, y), None,
                         f"reversed:{xi._fingerprint}")


def extreme_path(xi: OrderingTable, v: Vertex, which: str) -> PathPrefix:
    """The unique all-minimal (or all-maximal) path from the root to v; the
    maximal path is the minimal one of the reversed ordering."""
    if which not in (MIN, MAX):
        raise ValueError(f"which is {MIN!r} or {MAX!r}, not {which!r}")
    x, y = _coordinates(v)
    return PathPrefix(_descend(xi if which == MIN else _reversed(xi), x, y, 0))


def _descend(xi: OrderingTable, x: int, y: int, r: int) -> list:
    """Steps of the rank-r path to (x, y), walked down to the root; r is
    not checked.  The minimal step into interior (x, y) is 1 - its bit,
    and from a boundary vertex the path runs straight down its side.
    Once r is 0 every step is minimal, and no binomial is computed."""
    bit = xi._lookup
    comb = math.comb
    rev = []
    while x and y:
        s = 1 - bit(x, y)
        if r:
            below = comb(x + y - 1, x - 1 + s)  # via the minimal parent
            if r >= below:
                r -= below
                s = 1 - s
        rev.append(s)
        if s == A_STEP:
            x -= 1
        else:
            y -= 1
    rev += [A_STEP] * x + [B_STEP] * y  # one of x, y is 0 here
    rev.reverse()
    return rev


def _pivot(xi: OrderingTable, steps: list) -> bool:
    """Move `steps` in place to the next path to the same terminal vertex
    (on `_reversed(xi)`, xi's previous path): the lowest edge into an
    interior vertex that is not the maximal one there, the bit's step, is
    swapped for it, and the steps below are refilled with the minimal
    path.  A boundary vertex has one incoming edge, so it never pivots.
    Returns False, leaving `steps` as they are, when no edge pivots."""
    bit = xi._lookup
    x = y = 0
    for i, s in enumerate(steps):
        if s == A_STEP:
            x += 1
        else:
            y += 1
        if x and y and s != bit(x, y):
            steps[i] = 1 - s
            steps[:i] = _descend(xi, x - s, y - 1 + s, 0)
            return True
    return False


def minimal_continuation(xi: OrderingTable, p: PathPrefix, level: int) -> PathPrefix:
    """Extend p to `level` following minimal edges, biased off the boundary.

    From a side vertex the interior-pointing edge is taken even when not
    minimal, so continuations never run along the diagram's sides (side
    paths have no consistent factoring scheme and a trivial orbit window).
    Among two minimal interior edges the b step is preferred; when neither
    is minimal the b step is taken anyway.  The choice only has to be
    deterministic.
    """
    if type(level) is not int:
        raise ValueError(f"the level is an integer, not {level!r}")
    if level < len(p.steps):
        raise ValueError(f"level {level} is below the path length")
    bit = xi._lookup
    steps = list(p.steps)
    x, y = p.terminal
    while x + y < level:
        # bit 1 at (x + 1, y) makes the a step minimal, and bit 1 at
        # (x, y + 1) makes the b step maximal
        if y and (x == 0 or (bit(x + 1, y) and bit(x, y + 1))):
            steps.append(A_STEP)
            x += 1
        else:
            steps.append(B_STEP)
            y += 1
    return PathPrefix(tuple(steps))


def rank(xi: OrderingTable, p: PathPrefix) -> int:
    """Position of p among all root paths to its terminal, in the xi order."""
    bit = xi._lookup
    comb = math.comb
    r = 0
    x = y = 0
    for s in p.steps:
        if s == A_STEP:
            x += 1
        else:
            y += 1
        if x and y:
            b = bit(x, y)
            if s == b:
                # a maximal step: every path through the minimal parent,
                # (x - b, y - 1 + b), comes first
                r += comb(x + y - 1, x - b)
    return r


def unrank(xi: OrderingTable, v: Vertex, r: int) -> PathPrefix:
    """The rank-r path to v; inverse of `rank` on the column of v."""
    x, y = _coordinates(v)
    if type(r) is not int:
        raise ValueError(f"the rank r is an integer, not {r!r}")
    total = binomial(x + y, x)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} not in [0, {total}) at {(x, y)}")
    return PathPrefix(_descend(xi, x, y, r))
