"""Parsers and analyzers for restricted-ordering blocks and run structure.

Covers the C/D tokenizer and its inverse (recovering an ordering from a
block), the check that every block splits one way only, the two-phase
(ab)^j / (ba)^j exclusion search, run-context histograms, and the probes
around the smallest common subshift.
"""

import itertools
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .coding import basic_block, block_word_k, language_words
from .core import (OrderingTable, Vertex, binomial, explicit_ordering,
                   ordered_parents, rule_ordering)
from .errors import ParseError, ResourceCap


class CDToken(NamedTuple):
    """C tokens are a^i b, D tokens are a b^j; indexes of 1 never occur."""

    kind: str
    index: int

    def expand(self) -> str:
        if self.kind == "C":
            return "a" * self.index + "b"
        return "a" + "b" * self.index

    def __repr__(self):
        return f"{self.kind}{self.index}"


def decompose_CD(w: str):
    """Greedy left-to-right tokenization of a restricted-ordering block.

    Maximal a-runs of length >= 2 take one following b (C tokens); a
    single a followed by >= 2 b's is a D token.  The ambiguous "ab"
    (C1 = D1) never occurs inside a valid block and is rejected, and so
    is a letter other than a and b, at its own position.
    """
    if w.count("a") + w.count("b") != len(w):
        pos = re.search("[^ab]", w).start()
        raise ParseError(f"letter {w[pos]!r} is neither a nor b", pos)
    tokens = []
    i = 0
    while i < len(w):
        start = i
        while i < len(w) and w[i] == "a":
            i += 1
        run_a = i - start
        if run_a == 0:
            raise ParseError("expected an a-run", start)
        bs = i
        while i < len(w) and w[i] == "b":
            i += 1
        run_b = i - bs
        if run_a >= 2:
            if run_b == 0:
                raise ParseError("a-run without closing b", start)
            tokens.append(CDToken("C", run_a))
            i = bs + 1  # C consumes exactly one b
        else:
            if run_b < 2:
                raise ParseError("token ab is not allowed", start)
            tokens.append(CDToken("D", run_b))
    return tokens


def _token_index(tokens):
    """Token start offsets -> token index (len(w) -> len(tokens)), and
    token -> the sorted indices where it occurs."""
    starts, where = {0: 0}, {}
    offset = 0
    for t, tok in enumerate(tokens):
        where.setdefault(tok, []).append(t)
        offset += tok.index + 1
        starts[offset] = t + 1
    return starts, where


def _between(idx, lo: int, hi: int):
    """The entries of the sorted list idx in [lo, hi)."""
    return idx[bisect_left(idx, lo):bisect_left(idx, hi)]


def _decode_segment(w: str, lo: int, hi: int, u: int, v: int, bits: dict,
                    seen: dict, starts: dict, where: dict):
    """Recover the bit at (u, v) from w[lo:hi] = B(u, v), then recurse.

    A segment cut at token starts of w holds exactly w's tokens between
    them, so C_u and D_v are looked up in `where`.  A valid block is its
    tokens' concatenation, so every cut lies on a token start; a bound
    inside a token is a ParseError at that bound.  `seen` maps each
    interior vertex to the text of its first segment whose subtree
    decoded: a later segment of the right length with that same text
    decodes to the same tokens and bits, so it returns at once.
    """
    if hi - lo != binomial(u + v, u):
        raise ParseError(
            f"segment for ({u},{v}) has length {hi - lo}, "
            f"expected {binomial(u + v, u)}")
    if v == 1:
        if w[lo:hi] != "a" * u + "b":
            raise ParseError(f"expected C{u}", lo)
        return
    if u == 1:
        if w[lo:hi] != "a" + "b" * v:
            raise ParseError(f"expected D{v}", lo)
        return
    text = seen.get((u, v))
    if text is not None and w.startswith(text, lo):
        return
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
    old = bits.setdefault((u, v), bit)
    if old != bit:
        raise ParseError(f"inconsistent bit recovered at ({u},{v})", lo)
    first, second = ordered_parents(u, v, bit)
    cut = lo + binomial(first[0] + first[1], first[0])
    _decode_segment(w, lo, cut, first[0], first[1], bits, seen, starts, where)
    _decode_segment(w, cut, hi, second[0], second[1], bits, seen, starts,
                    where)
    seen[(u, v)] = w[lo:hi]


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
    tokens = decompose_CD(w)
    x = max((t.index for t in tokens if t.kind == "C"), default=1)
    y = max((t.index for t in tokens if t.kind == "D"), default=1)
    bits = {}
    _decode_segment(w, 0, len(w), x, y, bits, {}, *_token_index(tokens))
    return Vertex(x, y), explicit_ordering(bits, max_level=x + y), tokens


def _block(xi: OrderingTable, k: int, x: int, y: int):
    """The block at (x, y) of the k-coding: letters when k = 1."""
    return basic_block(xi, x, y) if k == 1 else block_word_k(xi, k, x, y)


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
    at the first block with other than one split.
    """
    if not 1 <= k <= n:
        raise ValueError("1 <= k <= n")
    words = [_block(xi, k, x, k - x) for x in range(k + 1)]
    for lvl in range(k + 1, n + 1):
        below = {word: x for x, word in enumerate(words)}
        words = [_block(xi, k, x, lvl - x) for x in range(lvl + 1)]
        if any(len(_one_step_splits(word, below)) != 1 for word in words):
            return False
    return True


# ---------------------------------------------------------------------------
# saturated run states and the (ab)^j exclusion search

ALT_CAP = 19  # runs of length 18 = |(ab)^9| must stay exactly representable


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


def alt_state(w: str, cap: int = ALT_CAP) -> AltState:
    if not w:
        raise ValueError("empty word")
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
    return AltState(p == len(w), w[0], min(p, cap), w[-1], min(s, cap),
                    min(maxab, cap), min(maxba, cap))


def _flip(c: str) -> str:
    return "b" if c == "a" else "a"


def combine_alt(s1: AltState, s2: AltState, cap: int = ALT_CAP) -> AltState:
    """State of a concatenation from the states of its parts (exact for
    every decision below the cap; caps up to 31)."""
    if cap > 31:
        raise ResourceCap("packed states support caps up to 31")
    return _unpack(_Combiner(cap)[_pack(s1) << 24 | _pack(s2)])


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
            # u's last letter differs from v's first: u's alternating suffix
            # and v's alternating prefix form one run across the junction,
            # which starts with u's last letter iff that suffix has odd length
            suffix, prefix = (a >> 8) & 31, (b >> 3) & 31
            starts_b = ((a >> 2) ^ suffix ^ 1) & 1
            run = suffix + prefix - starts_b
            if run > maxab:
                maxab = run
            run = suffix + prefix - 1 + starts_b
            if run > maxba:
                maxba = run
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


def _flagged(state: int, need: int) -> bool:
    return (state >> 13) & 31 >= need and (state >> 18) & 31 >= need


def _swap(s: int) -> int:
    """The letter swap σ on packed states: the state of a word with a and b
    exchanged (lc and rc flip, maxab and maxba trade places)."""
    return (s & 0x1FFF ^ 6) | ((s >> 13) & 31) << 18 | ((s >> 18) & 31) << 13


def _least_flagged(states, need: int) -> Optional[int]:
    """The least flagged packed state in `states`, or None: the one with
    the least maxba, then maxab, rl, ll, rc, lc and full."""
    return min((s for s in states if _flagged(s, need)), default=None)


def _children(pairs, comb: _Combiner) -> set:
    """The states of both concatenations, left + right and right + left,
    of every packed pair left << 24 | right in `pairs`."""
    get = comb.__getitem__
    return set(map(get, pairs)).union(
        map(get, [(p & 0xFFFFFF) << 24 | p >> 24 for p in pairs]))


def _next_level(vectors, comb: _Combiner, parents: Optional[set] = None):
    """(states, next vectors) one level above `vectors`.

    Each interior vertex has one candidate state per bit, and the next
    vectors are every combination of them.  With `parents`, no vectors
    are built: the adjacent parent pairs of every next vector (packed as
    left << 24 | right) are added to it instead, taken from the
    per-vertex options as {sb} x opt_1, opt_x x opt_x+1 and
    opt_last x {sa}.
    """
    states, nxt = set(), set()
    for vec in vectors:
        ext = (_SB,) + vec + (_SA,)  # parents of x are ext[x - 1], ext[x]
        adjacent = list(zip(ext, ext[1:]))
        zero = [comb[q << 24 | p] for p, q in adjacent]
        one = [comb[p << 24 | q] for p, q in adjacent]
        states.update(zero)
        states.update(one)
        options = [(s0,) if s0 == s1 else (s0, s1)
                   for s0, s1 in zip(zero, one)]
        if parents is None:
            nxt.update(itertools.product(*options))
        else:
            options = [(_SB,), *options, (_SA,)]
            for lefts, rights in zip(options, options[1:]):
                parents.update([p << 24 | q for p in lefts for q in rights])
    return states, nxt


def _phase1_exact(j: int, level: int, comb: _Combiner):
    """Exhaust all orderings to `level`; True iff no block holds both
    (ab)^j and (ba)^j.  State vectors deduplicate equivalent orderings.

    Each level flag-checks the set of distinct states it built
    (`_next_level`).  No vectors are built for the last two levels: the
    level below the last collects, as packed ints, the distinct adjacent
    parent pairs its vectors would hold, straight from the per-vertex
    options of the vectors below it, and the last level combines each
    pair both ways.  A flagged level names as witness its least flagged
    packed state (`_least_flagged`), a state some block realizes.
    """
    need = 2 * j
    vectors = {()}  # level n - 1's; none are built for the last level
    parents = {_SB << 24 | _SA}  # level 2's one parent pair
    for n in range(2, level + 1):
        if n < level:
            states, vectors = _next_level(
                vectors, comb, parents if n == level - 1 else None)
        else:
            states = _children(parents, comb)
        witness = _least_flagged(states, need)
        if witness is not None:
            return False, n, _unpack(witness)
    return True, level, None


# Bytes per phase-2 pair, counted over the pairs of both halves of every
# level built below the last although only about half are stored: a
# pair's packed int and set slot plus its share of the per-level
# groupings, the last level's reach sets and the combine memo.  The
# tracemalloc peak of an uncapped search to level L from an empty memo,
# over level L - 1's counted pairs, is 132-215 bytes at L = 7..13 on
# CPython 3.11.7, so 256 over-counts and keeps the cap on the safe side.
# (At L = 6 it is 311 bytes, but the whole peak there is 122 KB, under
# the least cap of 1 MiB.)
PAIR_BYTES = 256


def _next_pairs(n: int, pairs: list, comb: _Combiner):
    """Replace the stored pairs of level n in `pairs` by those of level
    n + 1, and return the children of each level-n position: those of
    position i are the reach set of the level-(n + 1) vertex at i + 1."""
    half = n // 2  # level n + 1 is built at positions 0..half
    by_left, by_right = [], []
    for cur in pairs:
        left, right = {}, {}
        for p in cur:
            kids = comb[p], comb[(p & 0xFFFFFF) << 24 | p >> 24]
            left.setdefault(p >> 24, set()).update(kids)
            right.setdefault(p & 0xFFFFFF, set()).update(kids)
        by_left.append(left)
        by_right.append(right)
    children = [set().union(*left.values()) for left in by_left]
    if n % 2 == 0:
        # level n's pairs at position half, not stored, mirror those at
        # half - 1
        by_left.append({_swap(m): {_swap(s) for s in kids}
                        for m, kids in by_right[half - 1].items()})
    pairs[:] = [{_SA << 24 | c for c in children[0]}]
    for i in range(1, half + 1):
        cur = set()
        left = by_left[i]
        for m, rs in by_right[i - 1].items():
            ls = left.get(m)
            if ls is not None:
                cur.update([r << 24 | l for r in rs for l in ls])
        pairs.append(cur)
    return children


def _phase2_reachable(j: int, level: int, comb: _Combiner,
                      max_bytes: Optional[int] = None):
    """Sibling-consistent reachable state pairs, propagated level by level.

    Tracks jointly reachable (left, right) state pairs of adjacent
    vertices at each level, packed as the int left << 24 | right (the
    combine key of the left state followed by the right one), and joins
    consecutive pairs on their shared middle state.  Fully independent
    per-vertex propagation would combine parent states arising from
    incompatible orderings (an (ab)^j-rich block next to a (ba)^j-rich
    one) and could never exclude anything; the pair join keeps the sets a
    sound over-approximation of what any single ordering can realize.  A
    vertex state is flagged when it could contain both patterns, i.e.
    maxab >= 2j and maxba >= 2j.

    Each pair's two children (one per bit at the child vertex) are
    computed once and grouped by the pair's left and right state; the
    pairs at an interior position are then the union over middle states
    m of (children of pairs ending in m) x (children of pairs starting
    with m).  The last level's pairs would feed no later level, so they
    are never built: its reach sets are the children of the level below.

    The reflection (x, y) -> (y, x), which flips every bit and swaps a and
    b, maps orderings to orderings, and the combine commutes with the
    letter swap σ (`_swap`).  So the pairs of a level at position n - 1 - i
    are {(σb, σa) for (a, b) at position i}, and the reach set of (y, x)
    is the σ-image of that of (x, y): only the positions of the lower half
    of each level (and its middle one) are built, and the rest of `reach`
    is filled by σ.

    Returns (excluded, reach, witness): reach maps each vertex to the set
    of packed states seen for it; witness is None, or (level, state) for
    the first flagged level and the least flagged packed state of its
    reach sets, mirrors included (`_least_flagged`).  With `max_bytes`,
    raises ResourceCap once the pairs of a level below `level`, both
    halves counted, would hold more than that (PAIR_BYTES a pair).
    """
    need = 2 * j
    reach = {(1, 0): {_SA}, (0, 1): {_SB}}
    witness = None
    # pairs[i] holds joint states of vertices (n-i, i) and (n-i-1, i+1), for
    # the positions i <= (n - 1) // 2 of level n; the rest are their mirrors
    pairs = [{_SA << 24 | _SB}]
    for n in range(1, level):
        half = n // 2  # level n + 1 is built at positions 0..half
        top = n + 1
        if top == level:
            # the last level's pairs would feed nothing: build only its
            # reach sets, the children of the pairs below
            children = [_children(cur, comb) for cur in pairs]
        else:
            children = _next_pairs(n, pairs, comb)
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
        reach[(top, 0)] = {_SA}
        reach[(0, top)] = {_SB}
        for pos in range(1, half + 1):
            reach[(top - pos, pos)] = children[pos - 1]
            reach[(pos, top - pos)] = {_swap(s) for s in children[pos - 1]}
        if n % 2:
            # the middle vertex; the middle pair is its own mirror, so its
            # children are σ-closed
            reach[(half + 1, half + 1)] = children[half]
        if witness is None:
            least = _least_flagged(itertools.chain.from_iterable(
                reach[(top - y, y)] for y in range(1, top)), need)
            if least is not None:
                witness = top, _unpack(least)
    return witness is None, reach, witness


@dataclass
class ExclusionVerdict:
    j: int
    exact_level: int
    dp_level: int
    exact_excluded: bool
    dp_excluded: bool
    witness_level: Optional[int] = None
    witness_state: Optional[AltState] = None

    @property
    def excluded(self):
        return self.exact_excluded and self.dp_excluded


def alternation_exclusion(L: int, j: int, exact_level: int = 7,
                          max_bytes: Optional[int] = None) -> ExclusionVerdict:
    """Two-phase check that no basic block contains both (ab)^j and (ba)^j.

    Phase 1 exhausts every ordering up to min(L, exact_level) exactly;
    phase 2 propagates sibling-consistent reachable run states to level L
    and checks that no state can hold both patterns at once.  A flagged
    verdict carries its witness: phase 1's first flagged level and its
    least flagged packed state (a state some block realizes) when phase 1
    flags, else phase 2's.  `max_bytes` caps phase 2's pair sets
    (ResourceCap).
    """
    if L < 1:
        raise ValueError("L >= 1")
    if j < 1:
        raise ValueError("j >= 1")
    if exact_level < 1:
        raise ValueError("exact_level >= 1")
    if 2 * j + 1 > ALT_CAP:
        raise ResourceCap(f"2j+1 = {2 * j + 1} exceeds saturation cap "
                          f"{ALT_CAP}; the largest j is {(ALT_CAP - 1) // 2}")
    e_level = min(L, exact_level)
    comb = _Combiner(ALT_CAP)
    exact_ok, wit_level, wit_state = _phase1_exact(j, e_level, comb)
    dp_ok, _, dp_witness = _phase2_reachable(j, L, comb, max_bytes)
    verdict = ExclusionVerdict(j, e_level, L, exact_ok, dp_ok)
    if not exact_ok:
        verdict.witness_level = wit_level
        verdict.witness_state = wit_state
    elif not dp_ok:
        verdict.witness_level, verdict.witness_state = dp_witness
    return verdict


# ---------------------------------------------------------------------------
# run contexts


@dataclass
class RunContextReport:
    pattern: str
    run_length: int
    level: int
    contexts: Counter = field(default_factory=Counter)
    clipped: Counter = field(default_factory=Counter)


_RUN = re.compile("a+|b+")


def _run_end(w: str, pos: int) -> int:
    """The end of the letter run that starts at w[pos]."""
    return _RUN.match(w, pos).end()


def _scan_block_contexts(w: str, l: int, inner: str, runs_of_l,
                         report: RunContextReport):
    """Tally the contexts in one block.  `runs_of_l` matches the maximal
    inner runs of exactly l letters with an outer letter on each side."""
    n = len(w)
    cluster_end = 0
    for m in runs_of_l.finditer(w):
        start, end = m.span()
        if start < cluster_end:
            continue  # a chained run of a cluster already tallied
        # cluster: chain of exactly-l inner runs linked by single outers;
        # a chained run must still have an outer run after it
        while (end + 1 + l < n and w[end + 1] == inner
               and _run_end(w, end + 1) == end + 1 + l):
            end += 1 + l
        cluster_end = span_hi = end  # first character of right delimiter
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


def run_context_report(xi: OrderingTable, l: int, L: int,
                       pattern: str = "bab-run") -> RunContextReport:
    """Histogram of maximal contexts around runs b a^l b (or a b^l a).

    Scans every basic block up to level L.  An occurrence is grown to the
    right through non-increasing runs of length >= l-1 and through the
    closing run of the opposite letter; occurrences whose growth hits a
    block edge are tallied separately as clipped.  One regex scan of each
    block finds its l-runs, and only the runs next to them are measured.
    """
    if l <= 6:
        raise ValueError("l > 6")
    if pattern not in ("bab-run", "aba-run"):
        raise ValueError("pattern is 'bab-run' or 'aba-run'")
    inner = "a" if pattern == "bab-run" else "b"
    outer = _flip(inner)
    runs_of_l = re.compile(f"(?<={outer}){inner}{{{l}}}(?={outer})")
    report = RunContextReport(pattern, l, L)
    for n in range(2, L + 1):
        for x in range(1, n):
            _scan_block_contexts(basic_block(xi, x, n - x), l, inner,
                                 runs_of_l, report)
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


@dataclass
class PeriodicEvidence:
    period_word: str
    offset: int
    window_length: int
    absent_window: Optional[str]
    vacuous: bool
    minimal_absent_length: Optional[int]

    @property
    def excluded(self):
        return self.absent_window is not None


@dataclass
class PeriodicReport:
    period: int
    level: int
    window_length: int
    cases: list = field(default_factory=list)

    @property
    def all_excluded(self):
        return all(c.excluded for c in self.cases)


def _present_prefix(blocks, s: str) -> int:
    """Length of the longest prefix of s that occurs in some block."""
    have = 0
    for blk in blocks:
        pos = blk.find(s[:have + 1])
        while pos >= 0:
            # blk[pos:] starts with s[:have + 1]: gallop the match on (a
            # slice running past the block's end is short, so unequal)
            have += 1
            step = 1
            while step:
                if (have + step <= len(s) and blk[pos + have:pos + have + step]
                        == s[have:have + step]):
                    have += step
                    step *= 2
                else:
                    step //= 2
            if have == len(s):
                return have
            pos = blk.find(s[:have + 1], pos + 1)
    return have


def periodic_exclusion(xi: OrderingTable, p: int, L: int,
                       words=None) -> PeriodicReport:
    """Look for windows of w^infinity missing from the block language.

    For each candidate period word w of length p (both letters required),
    the window length is 3M + 1 where M is the longest basic block at
    level 4(p + 1).  A window absent from every block up to level L is
    desk-scale evidence that w^infinity does not embed; when every offset
    of the window occurs the case is reported INCONCLUSIVE (None).

    Each block is a parent, hence a factor, of a block one level up, so
    only the level-L blocks are searched.  The minimal
    absent length of a window is one more than its longest prefix that
    occurs in some block.
    """
    if p < 2:
        raise ValueError("period must be at least 2")
    r = p + 1
    window_len = 3 * binomial(4 * r, 2 * r) + 1
    if words is None:
        words = ["".join(c) for c in itertools.product("ab", repeat=p)]
        words = [w for w in words if "a" in w and "b" in w]
    else:
        for w in words:
            if "a" not in w or "b" not in w:
                raise ValueError(f"{w!r} does not use both letters")
    blocks = [basic_block(xi, x, L - x) for x in range(L + 1)]
    longest = max(map(len, blocks))
    report = PeriodicReport(p, L, window_len)
    for w in words:
        found, offset_used, minimal = None, 0, None
        for offset in range(p):
            window = (w * ((window_len + offset) // p + 2))[
                offset:offset + window_len]
            present = _present_prefix(blocks, window)
            if present < window_len:
                found, offset_used, minimal = window, offset, present + 1
                break
        report.cases.append(PeriodicEvidence(
            w, offset_used, window_len, found, window_len > longest, minimal))
    return report
