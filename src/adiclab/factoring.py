"""Parsers and analyzers for restricted-ordering blocks and run structure.

Covers the C/D tokenizer and its inverse (recovering an ordering from a
block), canonical block factorizations and the uniqueness check for
split schemes, condensed forms, the two-phase (ab)^j / (ba)^j exclusion
search, run-context histograms, and the probes around the smallest
common subshift.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .coding import basic_block, block_word_k, language_words
from .core import (OrderingTable, Vertex, binomial, ordered_parents,
                   rule_ordering)
from .errors import (CapExceeded, InconsistentLengths, InvalidPeriodWord,
                     LevelBelowK, ParseError)


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
    (C1 = D1) never occurs inside a valid block and is rejected.
    """
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


def _decode_segment(w: str, lo: int, hi: int, u: int, v: int, bits: dict):
    """Recover the bit at (u, v) from w[lo:hi] = B(u, v), then recurse."""
    if hi - lo != binomial(u + v, u):
        raise InconsistentLengths(
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
    tokens = decompose_CD(w[lo:hi])
    pos_c = [t for t, tok in enumerate(tokens) if tok == CDToken("C", u)]
    pos_d = [t for t, tok in enumerate(tokens) if tok == CDToken("D", v)]
    if len(pos_c) != 1 or len(pos_d) != 1:
        raise ParseError(f"C{u} and D{v} must appear exactly once in "
                         f"the segment for ({u},{v})", lo)
    bit = 0 if pos_c[0] < pos_d[0] else 1
    old = bits.setdefault((u, v), bit)
    if old != bit:
        raise ParseError(f"inconsistent bit recovered at ({u},{v})", lo)
    first, second = ordered_parents(u, v, bit)
    cut = lo + binomial(first[0] + first[1], first[0])
    _decode_segment(w, lo, cut, first[0], first[1], bits)
    _decode_segment(w, cut, hi, second[0], second[1], bits)


def decode_ordering(w: str):
    """Invert `basic_block` on restricted orderings.

    Returns (vertex, table): the vertex whose block w is, and an explicit
    ordering table carrying the recovered interior bits (rows stay left
    to right).  Raises ParseError / InconsistentLengths when w is not a
    restricted-ordering basic block.
    """
    from .core import explicit_ordering

    if w == "a":
        return Vertex(1, 0), explicit_ordering({}, max_level=1)
    if w == "b":
        return Vertex(0, 1), explicit_ordering({}, max_level=1)
    if w == "ab":
        # C1 = D1; the block of (1, 1) under the restriction
        return Vertex(1, 1), explicit_ordering({}, max_level=2)
    tokens = decompose_CD(w)
    x = max((t.index for t in tokens if t.kind == "C"), default=1)
    y = max((t.index for t in tokens if t.kind == "D"), default=1)
    bits = {}
    _decode_segment(w, 0, len(w), x, y, bits)
    return Vertex(x, y), explicit_ordering(bits, max_level=x + y)


def factor_block(xi: OrderingTable, k: int, source, m: int):
    """Canonical factorization of the block at `source` into level-m blocks.

    Unrolls the concatenation recurrence until every factor sits at level
    m; boundary factors are reported at the level-m boundary vertex.
    Returns a list of (vertex, block word) pairs whose words concatenate
    back to the source block.
    """
    x, y = source
    if m < k:
        raise LevelBelowK(f"m={m} below k={k}")
    if not k <= m <= x + y:
        raise ValueError("need k <= m <= x + y")

    vertices = []

    def unroll(u, v):
        if v == 0:
            vertices.append(Vertex(m, 0))
            return
        if u == 0:
            vertices.append(Vertex(0, m))
            return
        if u + v == m:
            vertices.append(Vertex(u, v))
            return
        for parent in ordered_parents(u, v, xi.bit(u, v)):
            unroll(*parent)

    unroll(x, y)
    if k == 1:
        return [(v, basic_block(xi, v.x, v.y)) for v in vertices]
    return [(v, block_word_k(xi, k, v.x, v.y)) for v in vertices]


def _blocks_by_level(xi, k, levels):
    """word -> vertex map per level (blocks at one level are distinct)."""
    table = {}
    for lvl in levels:
        words = {}
        for x in range(lvl + 1):
            y = lvl - x
            word = basic_block(xi, x, y) if k == 1 else block_word_k(xi, k, x, y)
            words[word] = Vertex(x, y)
        table[lvl] = words
    return table


def factorization_scheme_counts(xi: OrderingTable, k: int, n: int,
                                limit: int = 16):
    """Count split schemes of every level-n block down to each level m.

    A scheme repeatedly cuts a block word into two words that are both
    basic blocks one level down (single-letter boundary blocks persist
    unsplit), until level m is reached.  The canonical factorization is
    always one such scheme; the map reports how many exist in total,
    capped at `limit`.
    """
    if not 1 <= k <= n:
        raise ValueError("1 <= k <= n")
    levels = _blocks_by_level(xi, k, range(k, n + 1))
    counts = {}

    def count(word, lvl, m, memo):
        if lvl == m:
            return 1
        key = (lvl, word)
        got = memo.get(key)
        if got is not None:
            return got
        below = levels[lvl - 1]
        if len(word) == 1:
            total = count(word, lvl - 1, m, memo) if word in below else 0
        else:
            total = 0
            for cut in range(1, len(word)):
                head, tail = word[:cut], word[cut:]
                if head in below and tail in below:
                    total += count(head, lvl - 1, m, memo) * count(tail, lvl - 1, m, memo)
                    if total >= limit:
                        break
        memo[key] = total
        return total

    for x in range(n + 1):
        word = next(w for w, v in levels[n].items() if v == (x, n - x))
        for m in range(k, n):
            counts[(Vertex(x, n - x), m)] = count(word, n, m, {})
    return counts


def unique_factorization_check(xi: OrderingTable, k: int, n: int) -> bool:
    """True iff every level-n block has exactly one split scheme down to
    every level m with k <= m < n."""
    if n == k:
        return True
    return all(c == 1 for c in factorization_scheme_counts(xi, k, n).values())


# ---------------------------------------------------------------------------
# condensed forms


@dataclass(frozen=True)
class CondensedForm:
    """Longest alternating prefix and suffix of a word; full words have
    no star between them."""

    prefix: str
    suffix: str
    full: bool

    def __str__(self):
        return self.prefix if self.full else f"{self.prefix}*{self.suffix}"


def _alternating_prefix_len(w: str) -> int:
    i = 1
    while i < len(w) and w[i] != w[i - 1]:
        i += 1
    return i


def condensed_form(w: str) -> CondensedForm:
    if not w:
        raise ValueError("condensed form of the empty word")
    p = _alternating_prefix_len(w)
    if p == len(w):
        return CondensedForm(w, w, True)
    s = _alternating_prefix_len(w[::-1])
    return CondensedForm(w[:p], w[len(w) - s:], False)


def condense_concat(c1: CondensedForm, c2: CondensedForm) -> CondensedForm:
    """Condensed form of any concatenation u v given the forms of u and v."""
    chain = c1.suffix[-1] != c2.prefix[0]
    if c1.full and c2.full:
        if chain:
            return CondensedForm(c1.prefix + c2.prefix, c1.prefix + c2.prefix, True)
        return CondensedForm(c1.prefix, c2.suffix, False)
    if c1.full:
        prefix = c1.prefix + c2.prefix if chain else c1.prefix
        return CondensedForm(prefix, c2.suffix, False)
    if c2.full:
        suffix = c1.suffix + c2.suffix if chain else c2.suffix
        return CondensedForm(c1.prefix, suffix, False)
    return CondensedForm(c1.prefix, c2.suffix, False)


# ---------------------------------------------------------------------------
# saturated run states and the (ab)^j exclusion search

ALT_CAP = 19  # runs of length 18 = |(ab)^9| must stay exactly representable


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
    every decision below the cap)."""
    chain = s1.rc != s2.lc
    maxab = max(s1.maxab, s2.maxab)
    maxba = max(s1.maxba, s2.maxba)
    if chain:
        jstart = s1.rc if s1.rl % 2 == 1 else _flip(s1.rc)
        ab, ba = _run_contrib(jstart, s1.rl + s2.ll)
        maxab = max(maxab, ab)
        maxba = max(maxba, ba)
    if s1.full and chain:
        ll = min(s1.ll + s2.ll, cap)
    else:
        ll = s1.ll
    if s2.full and chain:
        rl = min(s1.rl + s2.rl, cap)
    else:
        rl = s2.rl
    return AltState(s1.full and s2.full and chain, s1.lc, ll, s2.rc, rl,
                    min(maxab, cap), min(maxba, cap))


def _pack(s: AltState) -> int:
    return (int(s.full) | (s.lc == "b") << 1 | (s.rc == "b") << 2
            | s.ll << 3 | s.rl << 8 | s.maxab << 13 | s.maxba << 18)


def _unpack(v: int) -> AltState:
    return AltState(bool(v & 1), "ab"[(v >> 1) & 1], (v >> 3) & 31,
                    "ab"[(v >> 2) & 1], (v >> 8) & 31, (v >> 13) & 31,
                    (v >> 18) & 31)


class _Combiner:
    """Memoized packed-state combination."""

    def __init__(self, cap):
        self.cap = cap
        self.memo = {}

    def __call__(self, a: int, b: int) -> int:
        key = a << 24 | b
        got = self.memo.get(key)
        if got is None:
            got = _pack(combine_alt(_unpack(a), _unpack(b), self.cap))
            self.memo[key] = got
        return got


def _boundary_states(cap):
    return _pack(alt_state("a", cap)), _pack(alt_state("b", cap))


def _phase1_exact(j: int, level: int, cap: int):
    """Exhaust all orderings to `level`; True iff no block holds both
    (ab)^j and (ba)^j.  State vectors deduplicate equivalent orderings."""
    need = 2 * j
    comb = _Combiner(cap)
    sa, sb = _boundary_states(cap)
    vectors = {()}
    for n in range(2, level + 1):
        interior = n - 1
        nxt = set()
        for vec in vectors:
            for bits in range(1 << interior):
                new = []
                for x in range(1, n):
                    y = n - x
                    p_b = sa if y - 1 == 0 else vec[x - 1]
                    p_a = sb if x - 1 == 0 else vec[x - 2]
                    if (bits >> (x - 1)) & 1:
                        state = comb(p_a, p_b)
                    else:
                        state = comb(p_b, p_a)
                    if (state >> 13) & 31 >= need and (state >> 18) & 31 >= need:
                        return False, n, _unpack(state)
                    new.append(state)
                nxt.add(tuple(new))
        vectors = nxt
    return True, level, None


def _phase2_reachable(j: int, level: int, cap: int):
    """Sibling-consistent reachable state pairs, propagated level by level.

    Tracks jointly reachable (left, right) state pairs of adjacent
    vertices at each level and joins consecutive pairs on their shared
    middle state.  Fully independent per-vertex propagation would combine
    parent states arising from incompatible orderings (an (ab)^j-rich
    block next to a (ba)^j-rich one) and could never exclude anything;
    the pair join keeps the sets a sound over-approximation of what any
    single ordering can realize.  A vertex state is flagged when it could
    contain both patterns, i.e. maxab >= 2j and maxba >= 2j.

    Returns (excluded, reach) with reach mapping each vertex to the set
    of packed states seen for it.
    """
    need = 2 * j
    comb = _Combiner(cap)
    sa, sb = _boundary_states(cap)
    reach = {(1, 0): {sa}, (0, 1): {sb}}
    excluded = True
    # pairs[i] holds joint states of vertices (n-i, i) and (n-i-1, i+1)
    pairs = [{(sa, sb)}]
    for n in range(1, level):
        by_first = []
        for cur in pairs:
            d = {}
            for a, b in cur:
                d.setdefault(a, set()).add(b)
            by_first.append(d)

        def children(s_prev, s_cur):
            # both bit choices at the child whose parents carry these states
            return comb(s_prev, s_cur), comb(s_cur, s_prev)

        new_pairs = []
        for i in range(n + 1):
            cur = set()
            if i == 0:
                for s0, s1 in pairs[0]:
                    for c in children(s0, s1):
                        cur.add((sa, c))
            elif i == n:
                for sm, sn in pairs[n - 1]:
                    for c in children(sm, sn):
                        cur.add((c, sb))
            else:
                for s_im1, s_i in pairs[i - 1]:
                    for s_ip1 in by_first[i].get(s_i, ()):
                        left = children(s_im1, s_i)
                        right = children(s_i, s_ip1)
                        for c1 in left:
                            for c2 in right:
                                cur.add((c1, c2))
            new_pairs.append(cur)
        pairs = new_pairs
        reach[(n + 1, 0)] = {sa}
        reach[(0, n + 1)] = {sb}
        for i, cur in enumerate(pairs):
            for a, b in cur:
                for pos, v in ((i, a), (i + 1, b)):
                    if 0 < pos < n + 1:
                        reach.setdefault((n + 1 - pos, pos), set()).add(v)
                        if (v >> 13) & 31 >= need and (v >> 18) & 31 >= need:
                            excluded = False
    return excluded, reach


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
                          cap: int = ALT_CAP) -> ExclusionVerdict:
    """Two-phase check that no basic block contains both (ab)^j and (ba)^j.

    Phase 1 exhausts every ordering up to min(L, exact_level) exactly;
    phase 2 propagates sibling-consistent reachable run states to level L
    and checks that no state can hold both patterns at once.
    """
    if 2 * j + 1 > cap:
        raise CapExceeded(f"2j+1 = {2 * j + 1} exceeds saturation cap {cap}")
    if cap > 31:
        raise CapExceeded("packed states support caps up to 31")
    e_level = min(L, exact_level)
    exact_ok, wit_level, wit_state = _phase1_exact(j, e_level, cap)
    dp_ok, _ = _phase2_reachable(j, L, cap)
    verdict = ExclusionVerdict(j, e_level, L, exact_ok, dp_ok)
    if not exact_ok:
        verdict.witness_level = wit_level
        verdict.witness_state = wit_state
    return verdict


def reachable_alt_states(L: int, cap: int = ALT_CAP):
    """Phase-2 reachable sets as AltState tuples, for soundness probes."""
    _, reach = _phase2_reachable(1, L, cap)
    return {v: {_unpack(s) for s in states} for v, states in reach.items()}


# ---------------------------------------------------------------------------
# run contexts


@dataclass
class RunContextReport:
    pattern: str
    run_length: int
    level: int
    contexts: Counter = field(default_factory=Counter)
    clipped: Counter = field(default_factory=Counter)

    @property
    def context_words(self):
        return set(self.contexts)


def _runs(w: str):
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] != w[i - 1]:
            out.append((w[start], start, i - start))
            start = i
    return out


def _scan_block_contexts(w: str, l: int, inner: str, report: RunContextReport):
    runs = _runs(w)
    outer = _flip(inner)
    t = 0
    while t < len(runs):
        c, start, length = runs[t]
        if c != inner or length != l or t == 0 or t == len(runs) - 1:
            t += 1
            continue
        # cluster: chain of exactly-l inner runs linked by single outers;
        # a chained run must still have an outer run after it
        end_t = t
        while (end_t + 3 < len(runs) and runs[end_t + 1][2] == 1
               and runs[end_t + 2][0] == inner and runs[end_t + 2][2] == l):
            end_t += 2
        left = runs[t - 1]
        right = runs[end_t + 1]
        span_lo = left[1] + left[2] - 1  # single left delimiter character
        span_hi = right[1]               # first character of right delimiter
        clipped = False
        prev_len = l
        rdi = end_t + 1
        if right[2] == 1:
            # absorb following (inner run + outer) units, non-increasing
            while True:
                if rdi + 1 >= len(runs):
                    clipped = True  # delimiter ends the block
                    break
                nxt = runs[rdi + 1]
                if nxt[0] != inner or not (l - 1 <= nxt[2] <= prev_len):
                    break
                if rdi + 2 >= len(runs):
                    clipped = True  # absorbed run reaches the block edge
                    break
                span_hi = runs[rdi + 2][1]
                prev_len = nxt[2]
                rdi += 2
        else:
            # right delimiter is a longer outer run: absorb it and one run
            if rdi + 1 < len(runs):
                nxt = runs[rdi + 1]
                span_hi = nxt[1] + nxt[2] - 1
                if rdi + 2 >= len(runs):
                    clipped = True
            else:
                span_hi = right[1] + right[2] - 1
                clipped = True
        word = w[span_lo:span_hi + 1]
        (report.clipped if clipped else report.contexts)[word] += 1
        t = end_t + 1


def run_context_report(xi: OrderingTable, l: int, L: int,
                       pattern: str = "bab-run") -> RunContextReport:
    """Histogram of maximal contexts around runs b a^l b (or a b^l a).

    Scans every basic block up to level L.  An occurrence is grown to the
    right through non-increasing runs of length >= l-1 and through the
    closing run of the opposite letter; occurrences whose growth hits a
    block edge are tallied separately as clipped.
    """
    if l <= 6:
        raise ValueError("l > 6")
    if pattern not in ("bab-run", "aba-run"):
        raise ValueError("pattern is 'bab-run' or 'aba-run'")
    inner = "a" if pattern == "bab-run" else "b"
    report = RunContextReport(pattern, l, L)
    for n in range(2, L + 1):
        for x in range(1, n):
            _scan_block_contexts(basic_block(xi, x, n - x), l, inner, report)
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


def periodic_exclusion(xi: OrderingTable, p: int, L: int,
                       words=None) -> PeriodicReport:
    """Look for windows of w^infinity missing from the block language.

    For each candidate period word w of length p (both letters required),
    the window length is 3M + 1 where M is the longest basic block at
    level 4(p + 1).  A window absent from every block up to level L is
    desk-scale evidence that w^infinity does not embed; when every offset
    of the window occurs the case is reported INCONCLUSIVE (None).
    """
    if p < 2:
        raise InvalidPeriodWord("period must be at least 2")
    r = p + 1
    window_len = 3 * binomial(4 * r, 2 * r) + 1
    if words is None:
        words = ["".join(c) for c in itertools.product("ab", repeat=p)]
        words = [w for w in words if "a" in w and "b" in w]
    else:
        for w in words:
            if "a" not in w or "b" not in w:
                raise InvalidPeriodWord(f"{w!r} does not use both letters")
    corpus = []
    for n in range(1, L + 1):
        for x in range(n + 1):
            corpus.append(basic_block(xi, x, n - x))
    longest = max(map(len, corpus))
    report = PeriodicReport(p, L, window_len)

    def present(window):
        return any(window in blk for blk in corpus if len(blk) >= len(window))

    for w in words:
        found = None
        offset_used = 0
        for offset in range(p):
            stream = (w * ((window_len + offset) // p + 2))[offset:]
            window = stream[:window_len]
            if not present(window):
                found, offset_used = window, offset
                break
        minimal = None
        if found is not None:
            lo, hi = 1, window_len
            while lo < hi:
                mid = (lo + hi) // 2
                if present(found[:mid]):
                    lo = mid + 1
                else:
                    hi = mid
            minimal = lo
        report.cases.append(PeriodicEvidence(
            w, offset_used, window_len, found, window_len > longest, minimal))
    return report
