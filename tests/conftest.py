import itertools

import pytest

from adiclab.coding import basic_block
from adiclab.core import (PathPrefix, Vertex, binomial, explicit_ordering,
                          ordered_parents, seeded_ordering)
from adiclab.errors import InconsistentLengths, InvalidPeriodWord, ParseError
from adiclab.factoring import (CDToken, PeriodicEvidence, PeriodicReport,
                               _pack, _unpack, alt_state, combine_alt,
                               decompose_CD)


WORKED_BITS = {(2, 2): 1, (3, 2): 0, (4, 2): 1, (2, 3): 1, (3, 3): 1, (4, 3): 1}
# the worked block ab^3 ab^2 a^2b a^3b ab^2 a^2b a^3b ab^2 a^2b a^4b
WORKED_BLOCK = ("a" + "b" * 3 + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 3 + "b"
              + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 3 + "b"
              + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 4 + "b")
WORKED_TOKENS = ["D3", "D2", "C2", "C3", "D2", "C2", "C3", "D2", "C2", "C4"]


@pytest.fixture
def worked_ordering():
    """The ordering recovered in the worked decoding example."""
    return explicit_ordering(WORKED_BITS, max_level=7)


def all_paths(level):
    """Every path prefix of the given length."""
    return [PathPrefix(s) for s in itertools.product((0, 1), repeat=level)]


def column_paths(level, x):
    """Every path to (x, level - x)."""
    return [p for p in all_paths(level) if p.terminal == Vertex(x, level - x)]


def seeds(count, base=0):
    return [seeded_ordering(base + t) for t in range(count)]


# Reference column sweep by successor iteration on a byte array of steps
# (0 = a step, 1 = b step).  An interior edge entered via step s is maximal
# iff s equals the bit at its range, minimal iff it differs; boundary edges
# are both and are skipped when looking for a pivot.

def _fill_min_path(bit, x, y, steps, upto):
    # Fill steps[0:upto] with the minimal path to (x, y), walking backward.
    for pos in range(upto - 1, -1, -1):
        if x == 0:
            steps[pos] = 1
            y -= 1
        elif y == 0:
            steps[pos] = 0
            x -= 1
        elif bit(x, y) == 1:
            steps[pos] = 0
            x -= 1
        else:
            steps[pos] = 1
            y -= 1


def _successor_inplace(bit, steps, n):
    # Returns the pivot level, or -1 when the path is maximal.
    x = y = 0
    for i in range(n):
        s = steps[i]
        if s == 0:
            x += 1
        else:
            y += 1
        if x > 0 and y > 0 and s != bit(x, y):
            flipped = 1 - s
            steps[i] = flipped
            if flipped == 0:
                _fill_min_path(bit, x - 1, y, steps, i)
            else:
                _fill_min_path(bit, x, y - 1, steps, i)
            return i
    return -1


def successor_sweep(xi, x, y, k):
    """Sweep the whole column over (x, y) in rank order by the successor.

    Emits one byte per path: the bitmask of its first min(k, x+y) steps
    (bit t set iff step t is a b step).  Requires k <= 8.
    """
    if k > 8:
        raise ValueError("k <= 8 for byte-coded symbols")
    bit = xi.bit
    n = x + y
    kk = min(k, n)
    steps = bytearray(n)
    _fill_min_path(bit, x, y, steps, n)
    out = bytearray()
    while True:
        sym = 0
        for t in range(kk):
            sym |= steps[t] << t
        out.append(sym)
        if _successor_inplace(bit, steps, n) < 0:
            return bytes(out)


# Reference alternation searches: the plain loops over every bit pattern
# (phase 1) and over every pair of neighbouring pairs (phase 2), with their
# own memo over `combine_alt`.

def _reference_combiner(cap):
    memo = {}

    def comb(a, b):
        key = a << 24 | b
        got = memo.get(key)
        if got is None:
            got = _pack(combine_alt(_unpack(a), _unpack(b), cap))
            memo[key] = got
        return got

    sa, sb = _pack(alt_state("a", cap)), _pack(alt_state("b", cap))
    return comb, sa, sb


def _reference_flagged(state, need):
    return (state >> 13) & 31 >= need and (state >> 18) & 31 >= need


def phase1_reference(j, level, cap):
    """(excluded, witness level, witness state) by trying every bit pattern
    at every level, on every state vector."""
    need = 2 * j
    comb, sa, sb = _reference_combiner(cap)
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
                    if _reference_flagged(state, need):
                        return False, n, _unpack(state)
                    new.append(state)
                nxt.add(tuple(new))
        vectors = nxt
    return True, level, None


def phase2_reference(j, level, cap):
    """(excluded, reach) by joining every pair of neighbouring state pairs
    on their shared middle state, one left neighbour at a time."""
    need = 2 * j
    comb, sa, sb = _reference_combiner(cap)
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
                        for c1 in children(s_im1, s_i):
                            for c2 in children(s_i, s_ip1):
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
                        if _reference_flagged(v, need):
                            excluded = False
    return excluded, reach


# Reference block parsers: the periodic search over every block at every
# level with a binary search for the minimal absent length, and the decoder
# that re-tokenizes every segment.

def periodic_reference(xi, p, L, words=None):
    """`periodic_exclusion` by scanning the whole corpus for each window."""
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


def _decode_segment_reference(w, lo, hi, u, v, bits):
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
    _decode_segment_reference(w, lo, cut, first[0], first[1], bits)
    _decode_segment_reference(w, cut, hi, second[0], second[1], bits)


def decode_reference(w):
    """`decode_ordering` re-tokenizing every segment it cuts w into."""
    if w == "a":
        return Vertex(1, 0), explicit_ordering({}, max_level=1)
    if w == "b":
        return Vertex(0, 1), explicit_ordering({}, max_level=1)
    if w == "ab":
        return Vertex(1, 1), explicit_ordering({}, max_level=2)
    tokens = decompose_CD(w)
    x = max((t.index for t in tokens if t.kind == "C"), default=1)
    y = max((t.index for t in tokens if t.kind == "D"), default=1)
    bits = {}
    _decode_segment_reference(w, 0, len(w), x, y, bits)
    return Vertex(x, y), explicit_ordering(bits, max_level=x + y)
