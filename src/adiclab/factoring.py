"""Parsers and analyzers for restricted-ordering blocks and run structure.

Covers the C/D tokenizer and its inverse (recovering an ordering from a
block), the check that every block splits one way only, the (ab)^j /
(ba)^j exclusion search, run-context histograms, and the probes around
the smallest common subshift.
"""

import itertools
import re
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import cache
from typing import NamedTuple, Optional

from .coding import basic_block, block_word_k, language_words
from .core import (OrderingTable, Vertex, binomial, explicit_ordering,
                   ordered_parents, rule_ordering)
from .errors import ParseError, ResourceCap


class CDToken(NamedTuple):
    """C tokens are a^i b, D tokens are a b^j; indexes of 1 never occur."""

    kind: str
    index: int

    def __repr__(self):
        return f"{self.kind}{self.index}"


_CD = re.compile("(a{2,})b|a(b{2,})")


def decompose_CD(w: str):
    """Greedy left-to-right tokenization of a restricted-ordering block.

    Maximal a-runs of length >= 2 take one following b (C tokens); a
    single a followed by >= 2 b's is a D token.  The ambiguous "ab"
    (C1 = D1) never occurs inside a valid block and is rejected, and so
    is a letter other than a and b, at its own position.
    """
    return _scan_CD(w)[0]


def _scan_CD(w: str):
    """The C/D tokens of w from one compiled scan, with their index: token
    start offsets -> token index (len(w) -> len(tokens)), and token -> the
    sorted indices where it occurs."""
    if w.count("a") + w.count("b") != len(w):
        pos = re.search("[^ab]", w).start()
        raise ParseError(f"letter {w[pos]!r} is neither a nor b", pos)
    tokens, starts, where = [], {0: 0}, {}
    match = _CD.match
    i = 0
    while i < len(w):
        m = match(w, i)
        if m is None:
            raise ParseError("expected an a-run" if w[i] == "b"
                             else "a-run without closing b"
                             if w.startswith("aa", i)
                             else "token ab is not allowed", i)
        # C_i is a^i b and D_j is a b^j: the index is one under the length
        tok = CDToken("CD"[m.lastindex - 1], m.end() - i - 1)
        where.setdefault(tok, []).append(len(tokens))
        tokens.append(tok)
        i = m.end()
        starts[i] = len(tokens)
    return tokens, starts, where


def _between(idx, lo: int, hi: int):
    """The entries of the sorted list idx in [lo, hi)."""
    return idx[bisect_left(idx, lo):bisect_left(idx, hi)]


def _decode_bits(w: str, x: int, y: int, starts: dict, where: dict) -> dict:
    """The interior bits recovered from w = B(x, y).

    The segments w[lo:hi] = B(u, v) are read left to right from an
    explicit stack, a vertex's segment before its parents', so the depth
    of the block costs no recursion.  A segment cut at token starts of w
    holds exactly w's tokens between them, so C_u and D_v are looked up in
    `where`.  A valid block is its tokens' concatenation, so every cut lies
    on a token start; a bound inside a token is a ParseError at that
    bound.  `seen` maps each interior vertex to the offset of its first
    segment that passed these checks: a later segment with that same text
    decodes to the same tokens and bits, so it is skipped.  (A subtree
    that fails ends the decode, so only segments whose subtree decoded are
    ever compared.)
    """
    bits, seen = {}, {}
    stack = [(0, len(w), x, y)]
    while stack:
        lo, hi, u, v = stack.pop()
        size = binomial(u + v, u)
        if hi - lo != size:
            raise ParseError(f"segment for ({u},{v}) has length {hi - lo}, "
                             f"expected {size}")
        if v == 1:
            if w[lo:hi] != "a" * u + "b":
                raise ParseError(f"expected C{u}", lo)
            continue
        if u == 1:
            if w[lo:hi] != "a" + "b" * v:
                raise ParseError(f"expected D{v}", lo)
            continue
        first = seen.get((u, v))
        if first is not None and w.startswith(w[first:first + size], lo):
            continue
        t_lo, t_hi = starts.get(lo), starts.get(hi)
        if t_lo is None or t_hi is None:
            raise ParseError(f"segment for ({u},{v}) cuts a token",
                             lo if t_lo is None else hi)
        pos_c = _between(where.get(CDToken("C", u), ()), t_lo, t_hi)
        pos_d = _between(where.get(CDToken("D", v), ()), t_lo, t_hi)
        if len(pos_c) != 1 or len(pos_d) != 1:
            raise ParseError(f"C{u} and D{v} must appear exactly once in "
                             f"the segment for ({u},{v})", lo)
        bit = 0 if pos_c[0] < pos_d[0] else 1
        if bits.setdefault((u, v), bit) != bit:
            raise ParseError(f"inconsistent bit recovered at ({u},{v})", lo)
        seen.setdefault((u, v), lo)
        (u0, v0), (u1, v1) = ordered_parents(u, v, bit)
        cut = lo + binomial(u0 + v0, u0)
        stack += [(cut, hi, u1, v1), (lo, cut, u0, v0)]
    return bits


def decode_ordering(w: str):
    """Invert `basic_block` on restricted orderings.

    Returns (vertex, table): the vertex whose block w is, and an explicit
    ordering table carrying the recovered interior bits (rows stay left
    to right).  Raises ParseError when w is not a restricted-ordering
    basic block.  w is tokenized once and the segments are read off its
    token index; each vertex's segment is decoded once, and a later
    segment with the same text is skipped.
    """
    vertex, table, _ = _decode_with_tokens(w)
    return vertex, table


def _decode_with_tokens(w: str):
    """`decode_ordering` plus the C/D tokens of w; the blocks a, b and ab
    of levels 1 and 2 have none."""
    if not w:
        raise ParseError("empty word", 0)
    if w == "a":
        return Vertex(1, 0), explicit_ordering({}, max_level=1), []
    if w == "b":
        return Vertex(0, 1), explicit_ordering({}, max_level=1), []
    if w == "ab":
        # C1 = D1; the block of (1, 1) under the restriction
        return Vertex(1, 1), explicit_ordering({}, max_level=2), []
    tokens, starts, where = _scan_CD(w)
    x = max((t.index for t in where if t.kind == "C"), default=1)
    y = max((t.index for t in where if t.kind == "D"), default=1)
    bits = _decode_bits(w, x, y, starts, where)
    return Vertex(x, y), explicit_ordering(bits, max_level=x + y), tokens


def _one_step_splits(word, below: dict):
    """Index tuples of the level-below blocks that `word` splits into in
    one step, in cut order: two blocks, or a one-letter block persisting
    unsplit.  `below` maps each level-below block to its x."""
    if len(word) == 1:
        return [(below[word],)] if word in below else []
    return [(below[word[:cut]], below[word[cut:]])
            for cut in range(1, len(word))
            if word[:cut] in below and word[cut:] in below]


def unique_factorization_check(xi: OrderingTable, k: int, n: int) -> bool:
    """True iff every level-n block has exactly one split scheme down to
    every level m with k <= m < n.

    A scheme repeatedly cuts a block word into two words that are both
    blocks one level down (one-letter boundary blocks persist unsplit)
    until level m is reached.  Every block of an ordering has at least
    one split, into its parents' blocks, so the check holds iff every
    block at levels k + 1..n has exactly one one-step split:
    - if each does, every scheme count is 1, by induction down the
      levels;
    - if a level-l block has two, it is a parent of a block one level up,
      since (x, y) is a parent of (x + 1, y), and following canonical
      splits up to level n gives a level-n block whose count down to
      level l - 1 is at least 2.
    So one walk up the levels builds each level's blocks once and stops
    at the first block with other than one split.  For k = 1 the ids 0
    and 1 of `block_word_k` spell a and b.
    """
    if not 1 <= k <= n:
        raise ValueError("1 <= k <= n")
    words = [block_word_k(xi, k, x, k - x) for x in range(k + 1)]
    for lvl in range(k + 1, n + 1):
        below = {word: x for x, word in enumerate(words)}
        words = [block_word_k(xi, k, x, lvl - x) for x in range(lvl + 1)]
        if any(len(_one_step_splits(word, below)) != 1 for word in words):
            return False
    return True


# ---------------------------------------------------------------------------
# saturated run states and the (ab)^j exclusion search

ALT_CAP = 19  # runs of length 18 = |(ab)^9| must stay exactly representable
# the level up to which the tests check that the search's first flag is
# realized by a block, so `exact_excluded` can be read off the flag
EXACT_LEVEL = 7


def _alternating_prefix_len(w: str) -> int:
    i = 1
    while i < len(w) and w[i] != w[i - 1]:
        i += 1
    return i


class AltState(NamedTuple):
    """Saturated run summary of a block.

    lc/ll: first character and length of the longest alternating prefix;
    rc/rl: last character and length of the longest alternating suffix;
    maxab/maxba: longest alternating substrings starting with a and b.
    Lengths saturate at the cap; `full` marks entirely alternating words.
    """

    full: bool
    lc: str
    ll: int
    rc: str
    rl: int
    maxab: int
    maxba: int


def _run_contrib(first_char: str, length: int):
    ab = length if first_char == "a" else length - 1
    ba = length if first_char == "b" else length - 1
    return max(ab, 0), max(ba, 0)


def alt_state(w: str) -> AltState:
    if not w:
        raise ValueError("empty word")
    if w.count("a") + w.count("b") != len(w):
        raise ValueError("alphabet must be {a, b}")
    maxab = maxba = 0
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] == w[i - 1]:
            ab, ba = _run_contrib(w[start], i - start)
            maxab = max(maxab, ab)
            maxba = max(maxba, ba)
            start = i
    p = _alternating_prefix_len(w)
    s = _alternating_prefix_len(w[::-1])
    return AltState(p == len(w), w[0], min(p, ALT_CAP), w[-1],
                    min(s, ALT_CAP), min(maxab, ALT_CAP), min(maxba, ALT_CAP))


def combine_alt(s1: AltState, s2: AltState) -> AltState:
    """State of a concatenation from the states of its parts (exact for
    every decision below the cap)."""
    return _unpack(_Combiner(ALT_CAP)[_pack(s1) << 24 | _pack(s2)])


# A packed state holds `full` in bit 0, lc == "b" in bit 1, rc == "b" in
# bit 2, then ll, rl, maxab and maxba in five bits each from bit 3, 8, 13
# and 18 (23 bits in all).

def _pack(s: AltState) -> int:
    return (int(s.full) | (s.lc == "b") << 1 | (s.rc == "b") << 2
            | s.ll << 3 | s.rl << 8 | s.maxab << 13 | s.maxba << 18)


def _unpack(v: int) -> AltState:
    return AltState(bool(v & 1), "ab"[(v >> 1) & 1], (v >> 3) & 31,
                    "ab"[(v >> 2) & 1], (v >> 8) & 31, (v >> 13) & 31,
                    (v >> 18) & 31)


# the packed states of the one-letter blocks a and b, the same under any cap
_SA, _SB = _pack(alt_state("a")), _pack(alt_state("b"))


def _junction_runs(a: int, b: int):
    """(ab, ba) run lengths across the junction of a word u with packed
    state a followed by a word v with packed state b, where u's last letter
    differs from v's first: u's alternating suffix and v's alternating
    prefix form one run, which starts with u's last letter iff that suffix
    has odd length.  It reads only a's rc and rl and b's ll."""
    suffix, prefix = (a >> 8) & 31, (b >> 3) & 31
    starts_b = ((a >> 2) ^ suffix ^ 1) & 1
    return suffix + prefix - starts_b, suffix + prefix - 1 + starts_b


class _Combiner(dict):
    """Memo of packed-state combination under one cap: comb[a << 24 | b]
    is the packed state of a word u with state a followed by a word v
    with state b."""

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def __missing__(self, key: int) -> int:
        a, b, cap = key >> 24, key & 0xFFFFFF, self.cap
        ll, rl = (a >> 3) & 31, (b >> 8) & 31
        maxab, maxba = (a >> 13) & 31, (a >> 18) & 31
        other = (b >> 13) & 31
        if other > maxab:
            maxab = other
        other = (b >> 18) & 31
        if other > maxba:
            maxba = other
        full = 0
        if ((a >> 2) ^ (b >> 1)) & 1:
            run_ab, run_ba = _junction_runs(a, b)
            if run_ab > maxab:
                maxab = run_ab
            if run_ba > maxba:
                maxba = run_ba
            suffix, prefix = (a >> 8) & 31, (b >> 3) & 31
            if a & 1:
                ll += prefix
                if ll > cap:
                    ll = cap
            if b & 1:
                rl += suffix
                if rl > cap:
                    rl = cap
            full = a & b & 1
        if maxab > cap:
            maxab = cap
        if maxba > cap:
            maxba = cap
        got = self[key] = (full | a & 2 | b & 4 | ll << 3 | rl << 8
                           | maxab << 13 | maxba << 18)
        return got


def _swap(s: int) -> int:
    """The letter swap σ on packed states: the state of a word with a and b
    exchanged (lc and rc flip, maxab and maxba trade places)."""
    return (s & 0x1FFF ^ 6) | ((s >> 13) & 31) << 18 | ((s >> 18) & 31) << 13


def _least_flagged(states, need: int) -> Optional[int]:
    """The least flagged packed state in `states` (maxab and maxba both at
    least `need`), or None: the one with the least maxba, then maxab, rl,
    ll, rc, lc and full."""
    return min((s for s in states
                if (s >> 13) & 31 >= need and (s >> 18) & 31 >= need),
               default=None)


# The search keeps its states in a wide layout: bits 0..12 as in a packed
# state, then maxab and maxba as ALT_CAP-bit thermometers (a value v sets
# the low v bits) from bits 13 and _WIDE_BA.  The larger of two run fields
# is then their `|`, so two states that are not `full` combine with no
# memo: lc and ll come from the left state (_LEFT), rc and rl from the
# right one (_RIGHT), the thermometers are or-ed, and the runs across the
# junction depend only on the left state's _RIGHT bits and the right
# state's _LEFT bits (`_junctions`).  A wide pair is the int
# left << _WIDE_BITS | right.

_THERM = (1 << ALT_CAP) - 1
_WIDE_BA = 13 + ALT_CAP
_WIDE_BITS = _WIDE_BA + ALT_CAP
_WIDE = (1 << _WIDE_BITS) - 1
_LEFT, _RIGHT = 0xFA, 0x1F04  # lc and ll; rc and rl
_MAXES = _WIDE ^ 0x1FFF


def _widen(s: int) -> int:
    """The wide form of a packed state whose run fields are at most
    ALT_CAP."""
    return (s & 0x1FFF | ((1 << ((s >> 13) & 31)) - 1) << 13
            | ((1 << ((s >> 18) & 31)) - 1) << _WIDE_BA)


def _narrow(w: int) -> int:
    """The packed form of a wide state."""
    return (w & 0x1FFF | ((w >> 13) & _THERM).bit_length() << 13
            | (w >> _WIDE_BA).bit_length() << 18)


def _swap_wide(w: int) -> int:
    """`_swap` on wide states."""
    return (w & 0x1FFF ^ 6 | ((w >> 13) & _THERM) << _WIDE_BA
            | (w >> _WIDE_BA) << 13)


@cache
def _junctions() -> list:
    """jt[a & _RIGHT | b & _LEFT] holds the wide maxab and maxba of the
    runs across the junction of a word with state a followed by one with
    state b, neither `full` (8,192 entries, built on the first search)."""
    fields = range(ALT_CAP + 1)
    wide = {(ab, ba): ((1 << ab) - 1) << 13 | ((1 << ba) - 1) << _WIDE_BA
            for ab in fields for ba in fields}
    jt = [0] * (1 << 13)
    # bit 0, `full`, is clear in every index the search reads
    for k in range(0, 1 << 13, 2):
        if (k >> 1 ^ k >> 2) & 1:  # the letters at the junction differ
            # k holds the left state's rc and rl and the right one's ll
            ab, ba = _junction_runs(k, k)
            jt[k] = jt[k | 1] = wide[min(max(ab, 0), ALT_CAP),
                                     min(max(ba, 0), ALT_CAP)]
    return jt


# Bytes per phase-2 pair, counted over the pairs of both halves of every
# level built below the last although only about half are stored: a
# pair's wide int and set slot plus its share of the per-level groupings,
# the last level's reach sets and the junction table.  The tracemalloc
# peak of an uncapped search to level L in a fresh process (the table
# built inside it), over level L - 1's counted pairs, is 85-183 bytes at
# L = 7..13 on CPython 3.11.7, so 256 over-counts and keeps the cap on the
# safe side.  (At L = 6 it is 406 bytes, but the whole peak there is
# 159 KB, under the least cap of 1 MiB.)
PAIR_BYTES = 256


def _phase2_levels(level: int, comb: _Combiner,
                   max_bytes: Optional[int] = None):
    """Sibling-consistent reachable states, yielded one level at a time.

    Tracks jointly reachable (left, right) state pairs of adjacent
    vertices at each level, as wide pairs, and joins consecutive pairs on
    their shared middle state.  Fully independent per-vertex propagation
    would combine parent states arising from incompatible orderings (an
    (ab)^j-rich block next to a (ba)^j-rich one) and could never exclude
    anything; the pair join keeps the sets a sound over-approximation of
    what any single ordering can realize.

    Each pair's two children (one per bit at the child vertex) are
    computed once, by the junction table when neither state is `full` and
    by `comb` on the packed states otherwise, and grouped by the pair's
    left and right state; the pairs at an interior position are then the
    union over middle states m of (children of pairs ending in m) x
    (children of pairs starting with m).  The last level's pairs would
    feed no later level, so they are never built: its reach sets are the
    children of the level below.

    The reflection (x, y) -> (y, x), which flips every bit and swaps a and
    b, maps orderings to orderings, and the combine commutes with the
    letter swap σ (`_swap`).  So the pairs of a level at position n - 1 - i
    are {(σb, σa) for (a, b) at position i}, and the reach set of (y, x)
    is the σ-image of that of (x, y): only the positions of the lower half
    of each level (and its middle one) are built, and the rest of each
    row is filled by σ.

    Yields (n, row) for n = 1..level, where row[y] is the set of packed
    states seen for the vertex (n - y, y); no set depends on the pattern
    length j.  With `max_bytes`, raises ResourceCap once the pairs of a
    level below `level`, both halves counted, would hold more than that
    (PAIR_BYTES a pair).
    """
    yield 1, [{_SA}, {_SB}]
    jt = _junctions()
    sa = _widen(_SA)
    # pairs[i] holds joint states of vertices (n-i, i) and (n-i-1, i+1), for
    # the positions i <= (n - 1) // 2 of level n; the rest are their mirrors
    pairs = [{sa << _WIDE_BITS | _widen(_SB)}]
    for n in range(1, level):
        half = n // 2  # level n + 1 is built at positions 0..half
        top = n + 1
        grouped = top < level  # the last level's pairs would feed nothing
        children, by_left, by_right = [], [], []
        for cur in pairs:
            left, right, union = defaultdict(set), defaultdict(set), set()
            for p in cur:
                l, r = p >> _WIDE_BITS, p & _WIDE
                if (l | r) & 1:
                    # a `full` word's ll or rl grows across the junction
                    pl, pr = _narrow(l), _narrow(r)
                    kids = (_widen(comb[pl << 24 | pr]),
                            _widen(comb[pr << 24 | pl]))
                else:
                    x, y = l & _LEFT | r & _RIGHT, l & _RIGHT | r & _LEFT
                    m = (l | r) & _MAXES
                    kids = x | m | jt[y], y | m | jt[x]
                if grouped:
                    left[l].update(kids)
                    right[r].update(kids)
                else:
                    union.update(kids)
            if grouped:
                union = set().union(*left.values())
                by_left.append(left)
                by_right.append(right)
            children.append(union)
        if grouped:
            if n % 2 == 0:
                # level n's pairs at position half, not stored, mirror
                # those at half - 1
                by_left.append({_swap_wide(m): {_swap_wide(s) for s in ks}
                                for m, ks in by_right[half - 1].items()})
            # the middle positions hold the most pairs: build them first,
            # and drop each position's groupings once it is built
            pairs = []
            for i in range(half, 0, -1):
                cur = set()
                left = by_left.pop()
                for m, rs in by_right.pop(i - 1).items():
                    ls = left.get(m)
                    if ls is not None:
                        cur.update([r << _WIDE_BITS | l for r in rs
                                    for l in ls])
                pairs.append(cur)
            pairs.append({sa << _WIDE_BITS | c for c in children[0]})
            pairs.reverse()
            if max_bytes is not None:
                count = 2 * sum(map(len, pairs))
                if n % 2 == 0:
                    # the middle pair is its own mirror
                    count -= len(pairs[half])
                held = PAIR_BYTES * count
                if held > max_bytes:
                    raise ResourceCap(f"phase 2 pairs at level {top} hold "
                                      f"about {held} bytes, over the "
                                      f"{max_bytes}-byte cap")
        # each row is narrowed to packed states; an odd n has a middle
        # vertex, whose pair is its own mirror, so its children are σ-closed
        row = [{_narrow(s) for s in kids} for kids in children[:half + n % 2]]
        mirror = [{_swap(s) for s in kids} for kids in reversed(row[:half])]
        yield top, [{_SA}, *row, *mirror, {_SB}]


class ExclusionVerdict(NamedTuple):
    """The (ab)^j / (ba)^j verdict: `dp_excluded` to level `dp_level`,
    `exact_excluded` to level `exact_level`, and a flagged search's first
    flagged level and least flagged state."""

    j: int
    exact_level: int
    dp_level: int
    exact_excluded: bool
    dp_excluded: bool
    witness_level: Optional[int] = None
    witness_state: Optional[AltState] = None

    @property
    def excluded(self):
        return self.dp_excluded


def alternation_exclusion(L: int, j: int,
                          max_bytes: Optional[int] = None) -> ExclusionVerdict:
    """Check that no basic block up to level L holds both (ab)^j and (ba)^j.

    One search propagates sibling-consistent reachable run states level by
    level (`_phase2_levels`) and stops at the first level with a flagged
    state, one that could hold both patterns at once (maxab and maxba at
    least 2j).  Its reach sets hold every state some block realizes, so a
    search with no flag excludes every ordering to level L.  A flagged verdict
    carries the first flagged level and its least flagged packed state,
    mirrors included (`_least_flagged`).  `exact_excluded` answers for
    every ordering up to min(L, EXACT_LEVEL): it holds iff the first flag
    lies above that level, since a first flag at or below EXACT_LEVEL is
    realized, with the same least state, by a block of some ordering (a
    finite fact over j <= 9 that the tests check against an enumeration
    of every ordering).  `max_bytes` caps the search's pair sets
    (ResourceCap); a flagged search builds and counts them only up to its
    first flagged level.
    """
    if L < 1:
        raise ValueError("L >= 1")
    if j < 1:
        raise ValueError("j >= 1")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError("max_bytes >= 0")
    if 2 * j + 1 > ALT_CAP:
        raise ResourceCap(f"2j+1 = {2 * j + 1} exceeds saturation cap "
                          f"{ALT_CAP}; the largest j is {(ALT_CAP - 1) // 2}")
    e_level = min(L, EXACT_LEVEL)
    for n, row in _phase2_levels(L, _Combiner(ALT_CAP), max_bytes):
        least = _least_flagged(itertools.chain.from_iterable(row[1:n]), 2 * j)
        if least is not None:
            return ExclusionVerdict(j, e_level, L, n > e_level, False, n,
                                    _unpack(least))
    return ExclusionVerdict(j, e_level, L, True, True)


# ---------------------------------------------------------------------------
# run contexts


class RunContextReport(NamedTuple):
    run_length: int
    level: int
    contexts: Counter
    clipped: Counter


_RUN = re.compile("a+|b+")


def _run_end(w: str, pos: int) -> int:
    """The end of the letter run that starts at w[pos]."""
    return _RUN.match(w, pos).end()


def _scan_block_contexts(w: str, l: int, clusters, report: RunContextReport):
    """Tally the contexts in one block.  Each match of `clusters` is a
    cluster: a chain of maximal inner runs of exactly l letters linked by
    single outer letters, with an outer letter on each side."""
    n = len(w)
    for m in clusters.finditer(w):
        start, end = m.span()
        span_hi = end  # first character of right delimiter
        clipped = False
        delim_end = _run_end(w, end)
        if delim_end == end + 1:
            # absorb following (inner run + outer) units, non-increasing
            prev_len = l
            while True:
                if delim_end == n:
                    clipped = True  # delimiter ends the block
                    break
                run_end = _run_end(w, delim_end)
                if not l - 1 <= run_end - delim_end <= prev_len:
                    break
                if run_end == n:
                    clipped = True  # absorbed run reaches the block edge
                    break
                span_hi = run_end
                prev_len = run_end - delim_end
                delim_end = _run_end(w, run_end)
        elif delim_end < n:
            # right delimiter is a longer outer run: absorb it and one run
            run_end = _run_end(w, delim_end)
            span_hi = run_end - 1
            clipped = run_end == n
        else:
            span_hi = delim_end - 1
            clipped = True
        word = w[start - 1:span_hi + 1]  # from the single left delimiter
        (report.clipped if clipped else report.contexts)[word] += 1


def run_context_report(xi: OrderingTable, l: int, L: int) -> RunContextReport:
    """Histogram of maximal contexts around runs b a^l b.

    Scans every basic block up to level L.  An occurrence is grown to the
    right through non-increasing runs of length >= l-1 and through the
    closing run of b's; occurrences whose growth hits a block edge are
    tallied separately as clipped.  One regex scan of each block finds
    its clusters of l-runs, and only the runs next to them are measured.
    """
    if l <= 6:
        raise ValueError("l > 6")
    if L < 1:
        raise ValueError("L >= 1")
    clusters = re.compile(f"(?<=b)a{{{l}}}(?:ba{{{l}}}(?=b))*(?=b)")
    report = RunContextReport(l, L, Counter(), Counter())
    for n in range(2, L + 1):
        for x in range(1, n):
            _scan_block_contexts(basic_block(xi, x, n - x), l, clusters,
                                 report)
    return report


# ---------------------------------------------------------------------------
# small subshift probes


def small_subshift_orderings():
    """The two explicit orderings whose coding subshifts intersect in just
    four orbits; they realize a(ab)^9 b and b(ba)^9 a at (3, 3)."""
    low = {(1, 1): 0, (2, 1): 1, (1, 2): 1, (3, 1): 0, (2, 2): 1, (1, 3): 0}
    low_prime = {(1, 1): 0, (2, 1): 1, (1, 2): 1, (3, 1): 1, (2, 2): 0,
                 (1, 3): 1}
    xi = rule_ordering(lambda x, y: low[(x, y)] if x + y <= 4 else 0,
                       "small-subshift")
    xi_prime = rule_ordering(
        lambda x, y: low_prime[(x, y)] if x + y <= 4 else 1,
        "small-subshift-prime")
    return xi, xi_prime


def intersection_probe(xi: OrderingTable, xi_prime: OrderingTable, n: int,
                       L: int) -> set:
    """Common n-windows of the two language approximations."""
    return language_words(xi, n, L) & language_words(xi_prime, n, L)


def _periodic_window(word: str, offset: int, length: int) -> str:
    """The `length` letters of word^infinity from `offset` on."""
    return (word * ((length + offset) // len(word) + 2))[
        offset:offset + length]


class PeriodicEvidence(NamedTuple):
    period_word: str
    offset: int
    window_length: int
    excluded: bool
    vacuous: bool
    minimal_absent_length: Optional[int]

    @property
    def absent_window(self) -> Optional[str]:
        """The window found absent, rebuilt from its word, offset and
        length; None when the case is inconclusive."""
        if not self.excluded:
            return None
        return _periodic_window(self.period_word, self.offset,
                                self.window_length)


class PeriodicReport(NamedTuple):
    period: int
    level: int
    window_length: int
    cases: list

    @property
    def all_excluded(self):
        """True iff every case has an absent window.  A vacuous case, whose
        window is longer than every level-L block, counts as excluded."""
        return all(c.excluded for c in self.cases)

    @property
    def scope(self):
        """What the verdict rests on: the blocks up to level L, and how
        many of the cases are vacuous."""
        vacuous = sum(c.vacuous for c in self.cases)
        return (f"blocks up to level {self.level}; {vacuous} of "
                f"{len(self.cases)} cases vacuous")


def _present_prefix(blocks, s: str) -> int:
    """Length of the longest prefix of s that occurs in some block; a
    block that holds a prefix holds every shorter one."""
    have = 0
    for blk in blocks:
        while have < len(s) and s[:have + 1] in blk:
            have += 1
    return have


def periodic_exclusion(xi: OrderingTable, p: int, L: int) -> PeriodicReport:
    """Look for windows of w^infinity missing from the block language.

    For each word w of length p with both letters (all 2^p - 2 of them;
    for p = 4 that keeps abab and baba, which are (ab)^2 and already
    covered by p = 2), the window length is 3M + 1 where M is the longest
    basic block at level 4(p + 1).  A window absent from every block up
    to level L is desk-scale evidence that w^infinity does not embed;
    when every offset of the window occurs the case is reported
    INCONCLUSIVE (not `excluded`).  A case keeps no window text: an
    excluded case rebuilds its absent window from its word, offset and
    length (`PeriodicEvidence.absent_window`).  A case is vacuous when its
    window is longer than every level-L block.

    Each block is a parent, hence a factor, of a block one level up, so
    only the level-L blocks are searched.  The minimal
    absent length of a window is one more than its longest prefix that
    occurs in some block.
    """
    if p < 2:
        raise ValueError("period must be at least 2")
    if L < 1:
        raise ValueError("L >= 1")
    r = p + 1
    window_len = 3 * binomial(4 * r, 2 * r) + 1
    words = ["".join(c) for c in itertools.product("ab", repeat=p)]
    words = [w for w in words if "a" in w and "b" in w]
    blocks = [basic_block(xi, x, L - x) for x in range(L + 1)]
    longest = max(map(len, blocks))
    # no block holds a prefix longer than `longest`: one letter past decides
    searched = min(window_len, longest + 1)
    cases = []
    for w in words:
        found, offset_used, minimal = False, 0, None
        for offset in range(p):
            present = _present_prefix(
                blocks, _periodic_window(w, offset, searched))
            if present < window_len:
                found, offset_used, minimal = True, offset, present + 1
                break
        cases.append(PeriodicEvidence(
            w, offset_used, window_len, found, window_len > longest, minimal))
    return PeriodicReport(p, L, window_len, cases)
