import hashlib
import itertools
import random
import struct
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import strategies as st

from adiclab.adic import KinkCase, kink_classify, kink_return_time
from adiclab.bratteli import uniform_base
from adiclab.coding import (CylSymbol, FaithfulnessReport, PairSeparation,
                            basic_block, block_word_k, cyl_offsets)
from adiclab.core import (A_STEP, B_STEP, BOTH_EXTREMAL, MIN, OrderingTable,
                          PathPrefix, Vertex, binomial, column_size,
                          constant_ordering, explicit_ordering,
                          minimal_continuation, ordered_parents, rank,
                          seeded_ordering, tree_embedding_ordering, unrank)
from adiclab.errors import ColumnEnd, ParseError, ResourceCap
from adiclab.factoring import (ALT_CAP, CDToken, PeriodicEvidence,
                               PeriodicReport, RunContextReport, _Combiner,
                               _pack, _phase2_reachable, _unpack, alt_state,
                               decompose_CD, small_subshift_orderings)


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


def seeded_bit_reference(seed, x, y, bias):
    """The seeded bit at interior (x, y): 0 when the blake2b hash of the
    24 bytes (seed, x, y) falls below bias * 2^64, else 1."""
    threshold = int(float(bias) * 2.0**64)
    digest = hashlib.blake2b(struct.pack("<QQQ", seed & (2**64 - 1), x, y),
                             digest_size=8).digest()
    u = int.from_bytes(digest, "little")
    return 0 if u < threshold else 1


@st.composite
def orderings(draw):
    """An ordering of any kind, with bits at least up to level 60: constant,
    seeded, explicit, tree, or one of the two small-subshift rule orderings."""
    kind = draw(st.sampled_from(["constant", "seeded", "explicit", "tree",
                                 "rule"]))
    if kind == "constant":
        return constant_ordering(draw(st.integers(0, 1)))
    if kind == "rule":
        return small_subshift_orderings()[draw(st.integers(0, 1))]
    if kind == "seeded":
        return seeded_ordering(draw(st.integers(0, 2**63 - 1)),
                               draw(st.sampled_from([0.5, 0.1, 0.9])))
    if kind == "tree":
        return tree_embedding_ordering(draw(st.integers(1, 5)))
    # a random share of the vertices listed, the rest left to the default
    rng = random.Random(draw(st.integers(0, 2**32)))
    listed = rng.random()
    bits = {(x, n - x): rng.randrange(2) for n in range(2, 61)
            for x in range(1, n) if rng.random() < listed}
    return explicit_ordering(bits, 60, draw(st.integers(0, 1)))


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


# The k-coding spelled in other alphabets: step masks, letters, and the
# first-edge letter of each symbol.

def column_coding(xi, x, y, k):
    """Step masks of the first k edges of every path to (x, y), in rank order.

    Bit t of a mask is set iff step t is a b step.  This is the k-block at
    (x, y) with each cylinder id relabelled by the mask of the level-k
    path it names, so it needs x + y >= k.
    """
    table = bytearray(256)
    ident = 0
    for m in range(k + 1):  # ids in order: by m, then s
        for s in range(binomial(k, m)):
            steps = unrank(xi, Vertex(k - m, m), s).steps
            table[ident] = sum(b << t for t, b in enumerate(steps))
            ident += 1
    return block_word_k(xi, k, x, y).translate(table)


def symbol_to_id(sym):
    return cyl_offsets(sym.k)[sym.m] + sym.s - 1


def letters_from_k1(word):
    """Spell a 1-coding word (ids or CylSymbols) as letters."""
    return "".join("ab"[sym if isinstance(sym, int) else symbol_to_id(sym)]
                   for sym in word)


def project_symbol_to_letter(xi, sym):
    """First-edge letter of the path a symbol names (the factor map to k=1)."""
    return unrank(xi, Vertex(sym.k - sym.m, sym.m), sym.s - 1).word()[0]


def faithfulness_reference(xi, L, k, delta):
    """`faithfulness_probe` comparing step-mask windows (`column_coding`)."""
    if k > L:
        raise ValueError("k <= L required")
    deep = L + delta
    paths = [PathPrefix(s) for s in itertools.product((0, 1), repeat=L)]
    extended = [minimal_continuation(xi, p, deep) for p in paths]
    ranks = [rank(xi, e) for e in extended]
    codings = {}
    for e in extended:
        v = e.terminal
        if v not in codings:
            sweep = column_coding(xi, v.x, v.y, k)
            assert len(sweep) == column_size(v)
            codings[v] = sweep
    report = FaithfulnessReport(k=k, level=L, delta=delta)
    for i in range(len(paths)):
        si, ri = codings[extended[i].terminal], ranks[i]
        for j in range(i + 1, len(paths)):
            sj, rj = codings[extended[j].terminal], ranks[j]
            back = min(ri, rj)
            fwd = min(len(si) - ri, len(sj) - rj)
            wa = si[ri - back:ri + fwd]
            wb = sj[rj - back:rj + fwd]
            coord = None
            if wa != wb:
                for d in range(max(back, fwd)):
                    if d < fwd and wa[back + d] != wb[back + d]:
                        coord = d
                        break
                    if d < back and wa[back - 1 - d] != wb[back - 1 - d]:
                        coord = -1 - d
                        break
            report.pairs.append(PairSeparation(paths[i].word(), paths[j].word(),
                                               coord, (-back, fwd - 1)))
    return report


# Reference path arithmetic: the order queries written out per edge from
# `xi.bit`, each boundary case stated where it is met.

def _step_is_minimal(xi, step, target):
    b = xi.bit(target.x, target.y)
    if b == BOTH_EXTREMAL:
        return True
    return b == (1 if step == A_STEP else 0)


def _step_is_maximal(xi, step, target):
    b = xi.bit(target.x, target.y)
    if b == BOTH_EXTREMAL:
        return True
    return b == (0 if step == A_STEP else 1)


def _extreme_parent(xi, v, side):
    if v.x == 0:
        return Vertex(0, v.y - 1)
    if v.y == 0:
        return Vertex(v.x - 1, 0)
    return Vertex(*ordered_parents(v.x, v.y, xi.bit(v.x, v.y))[side])


def extreme_path_reference(xi, v, which):
    v = Vertex(*v)
    side = 0 if which == MIN else 1
    rev = []
    while v != (0, 0):
        u = _extreme_parent(xi, v, side)
        rev.append(A_STEP if u.x < v.x else B_STEP)
        v = u
    return PathPrefix(tuple(reversed(rev)))


def rank_reference(xi, p):
    r = 0
    x = y = 0
    for s in p.steps:
        tgt = Vertex(x + 1, y) if s == A_STEP else Vertex(x, y + 1)
        if tgt.interior and _step_is_maximal(xi, s, tgt):
            m = _extreme_parent(xi, tgt, 0)
            r += binomial(m.x + m.y, m.x)
        x, y = tgt
    return r


def compare_paths(xi, p, q):
    """Order two equal-length paths to the same vertex (-1, 0, or 1).

    Comparison finds the highest level where the edges differ; the smaller
    path is the one whose edge there is smaller in the xi order.
    """
    if len(p) != len(q) or p.terminal != q.terminal:
        raise ValueError("paths must have equal length and terminal")
    if p.steps == q.steps:
        return 0
    k = max(i for i in range(len(p)) if p.steps[i] != q.steps[i])
    tgt = p.vertex_at(k + 1)
    assert tgt == q.vertex_at(k + 1)
    return -1 if xi.parents(*tgt)[0] == p.vertex_at(k) else 1


def unrank_reference(xi, v, r):
    v = Vertex(*v)
    rev = []
    while v != (0, 0):
        if not v.interior:
            u = _extreme_parent(xi, v, 0)
        else:
            mn = _extreme_parent(xi, v, 0)
            low = column_size(mn)
            if r < low:
                u = mn
            else:
                r -= low
                u = _extreme_parent(xi, v, 1)
        rev.append(A_STEP if u.x < v.x else B_STEP)
        v = u
    return PathPrefix(tuple(reversed(rev)))


def count_extremal_reference(xi, level, which, horizon=None):
    """Backward DP over every vertex of every level, both edges out."""
    if level == 0:
        return 1
    if horizon is None:
        horizon = level + 16
    is_ext = _step_is_minimal if which == MIN else _step_is_maximal
    alive = {Vertex(horizon - y, y) for y in range(horizon + 1)}
    for lvl in range(horizon - 1, level - 1, -1):
        nxt = set()
        for y in range(lvl + 1):
            v = Vertex(lvl - y, y)
            for s in (A_STEP, B_STEP):
                t = Vertex(v.x + 1, v.y) if s == A_STEP else Vertex(v.x, v.y + 1)
                if t in alive and is_ext(xi, s, t):
                    nxt.add(v)
                    break
        alive = nxt
    return len(alive)


def kink_classify_reference(xi, p):
    term = p.terminal
    i, j = term.x - 1, term.y - 1
    if i < 1 or j < 1:
        raise ValueError(f"({i},{j}) is not interior")
    if p.steps[-2:] not in ((A_STEP, B_STEP), (B_STEP, A_STEP)):
        raise ValueError("path does not pass through (i, j)")
    if not _step_is_minimal(xi, p.steps[-1], term):
        raise ValueError("edge into (i+1, j+1) is not minimal")
    gamma_step = p.steps[-2]
    mid = Vertex(i + 1, j) if gamma_step == A_STEP else Vertex(i, j + 1)
    other_step = 1 - gamma_step
    other_mid = Vertex(i + 1, j) if other_step == A_STEP else Vertex(i, j + 1)
    a1 = "max" if _step_is_maximal(xi, gamma_step, mid) else "min"
    a2 = "max" if _step_is_maximal(xi, other_step, other_mid) else "min"
    a3 = "LR" if gamma_step == A_STEP else "RL"
    return KinkCase(a1, a2, a3)


def kink_verify_reference(xi, p, offset, max_level=64):
    """`kink_verify` at T^offset of p's minimal continuation, doubling
    the level until the r_n + offset iterates fit inside one column.

    Off r_n the window may leave p's own column, which is how the
    r_n +/- 1 non-vacuity probes are driven.
    """
    case = kink_classify(xi, p)
    n = len(p) - 2
    j = p.vertex_at(n).y
    r = kink_return_time(case, n, j) + offset
    level = len(p)
    while True:
        ext = minimal_continuation(xi, p, level)
        rk = rank(xi, ext)
        if rk + r < column_size(ext.terminal):
            break
        if level >= max_level:
            raise ColumnEnd(
                f"window does not fit below level {max_level}")
        level = min(2 * level, max_level)
    # the r-th successor of ext is the path of rank rk + r in its column
    return unrank(xi, ext.terminal, rk + r).steps[:n] == ext.steps[:n]


def tree_embedding_ordering_reference(depth):
    """The tree ordering built edge by edge into a table of bits, every
    branch step checked against the bits already set."""
    bits = {}

    def add_edge(src: Vertex, step: int):
        tgt = Vertex(src.x + 1, src.y) if step == A_STEP else Vertex(src.x, src.y + 1)
        if tgt.interior:
            want = 1 if step == A_STEP else 0
            if bits.setdefault((tgt.x, tgt.y), want) != want:
                raise AssertionError(f"tree branches collide at {tuple(tgt)}")
        return tgt

    def add_path(src: Vertex, steps):
        for s in steps:
            src = add_edge(src, s)
        return src

    # Base stage d=1: branches to (3,0) and (1,2).
    leaves = [add_path(Vertex(0, 0), (A_STEP,) * 3),
              add_path(Vertex(0, 0), (B_STEP, B_STEP, A_STEP))]
    for d in range(1, depth):
        spread = max(v.y for v in leaves)
        leaves = [add_path(v, (B_STEP,) * v.y + (A_STEP,) * (spread - v.y))
                  for v in leaves]
        forked = []
        for v in leaves:
            forked.append(add_path(v, (A_STEP, A_STEP)))
            forked.append(add_path(v, (B_STEP, B_STEP)))
        leaves = forked
    return OrderingTable(lambda x, y: bits.get((x, y), 0),
                         {"kind": "tree", "depth": depth},
                         f"tree:depth{depth}")


# Reference Vershik dynamics: the successor and predecessor as two walks
# that compare each step with `xi.bit`, the minimal continuation on
# `xi.bit`, and the orbit coding built a `PathPrefix` at a time through
# the reference successor.

def successor_reference(xi, p):
    steps = list(p.steps)
    x = y = 0
    for i, s in enumerate(steps):
        if s == A_STEP:
            x += 1
        else:
            y += 1
        if x > 0 and y > 0 and s != xi.bit(x, y):
            flipped = 1 - s
            steps[i] = flipped
            src = Vertex(x - 1, y) if flipped == A_STEP else Vertex(x, y - 1)
            steps[:i] = extreme_path_reference(xi, src, MIN).steps
            return PathPrefix(tuple(steps))
    raise ColumnEnd(f"maximal path to {tuple(p.terminal)}")


def predecessor_reference(xi, p):
    steps = list(p.steps)
    x = y = 0
    for i, s in enumerate(steps):
        if s == A_STEP:
            x += 1
        else:
            y += 1
        if x > 0 and y > 0 and s == xi.bit(x, y):
            flipped = 1 - s
            steps[i] = flipped
            src = Vertex(x - 1, y) if flipped == A_STEP else Vertex(x, y - 1)
            steps[:i] = extreme_path_reference(xi, src, "max").steps
            return PathPrefix(tuple(steps))
    raise ColumnEnd(f"minimal path to {tuple(p.terminal)}")


def minimal_continuation_reference(xi, p, level):
    steps = list(p.steps)
    x, y = p.terminal
    while x + y < level:
        if x == 0 and y > 0:
            s = A_STEP
        elif (y == 0 and x > 0) or xi.bit(x, y + 1) == 0 \
                or xi.bit(x + 1, y) != 1:
            s = B_STEP
        else:
            s = A_STEP
        steps.append(s)
        if s == A_STEP:
            x += 1
        else:
            y += 1
    return PathPrefix(tuple(steps))


def orbit_coding_reference(xi, p, k, window):
    t0, t1 = window
    if k > len(p):
        raise ValueError("k must not exceed the prefix length")
    if t1 < t0:
        raise ValueError("empty window")
    r = rank_reference(xi, p)
    if r + t0 < 0 or r + t1 >= column_size(p.terminal):
        raise ColumnEnd(
            f"window [{t0},{t1}] leaves column of {tuple(p.terminal)}")
    q = unrank_reference(xi, p.terminal, r + t0)
    out = []
    for t in range(t0, t1 + 1):
        head = q.prefix(k)
        out.append(CylSymbol(k, head.terminal.y, rank_reference(xi, head) + 1))
        if t < t1:
            q = successor_reference(xi, q)
    return tuple(out)


# Reference state combine: the packed-state concatenation rule written with
# `max`/`min`, as one function of (a, b, cap).

def combine_packed_reference(a, b, cap):
    """Packed state of u v from the packed states a of u and b of v."""
    ll, rl = (a >> 3) & 31, (b >> 8) & 31
    maxab = max((a >> 13) & 31, (b >> 13) & 31)
    maxba = max((a >> 18) & 31, (b >> 18) & 31)
    full = 0
    if ((a >> 2) ^ (b >> 1)) & 1:
        suffix, prefix = (a >> 8) & 31, (b >> 3) & 31
        starts_b = ((a >> 2) ^ suffix ^ 1) & 1
        maxab = max(maxab, suffix + prefix - starts_b)
        maxba = max(maxba, suffix + prefix - 1 + starts_b)
        if a & 1:
            ll = min(ll + prefix, cap)
        if b & 1:
            rl = min(suffix + rl, cap)
        full = a & b & 1
    return (full | a & 2 | b & 4 | ll << 3 | rl << 8
            | min(maxab, cap) << 13 | min(maxba, cap) << 18)


# Reference alternation searches: the plain loops over every bit pattern
# (phase 1) and over every pair of neighbouring pairs (phase 2), with their
# own memo over `combine_packed_reference`.

def _reference_combiner(cap):
    memo = {}

    def comb(a, b):
        key = a << 24 | b
        got = memo.get(key)
        if got is None:
            got = combine_packed_reference(a, b, cap)
            memo[key] = got
        return got

    sa, sb = _pack(alt_state("a", cap)), _pack(alt_state("b", cap))
    return comb, sa, sb


def _reference_flagged(state, need):
    return (state >> 13) & 31 >= need and (state >> 18) & 31 >= need


def phase1_reference(j, level, cap):
    """(excluded, witness level, witness state) by trying every bit pattern
    at every level, on every state vector; the witness is the least
    flagged packed state of the first flagged level."""
    need = 2 * j
    comb, sa, sb = _reference_combiner(cap)
    vectors = {()}
    for n in range(2, level + 1):
        interior = n - 1
        nxt, hits = set(), []
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
                        hits.append(state)
                    new.append(state)
                nxt.add(tuple(new))
        if hits:
            return False, n, _unpack(min(hits))
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


# The alternation phases as they stood before phase 2 built half of each
# level and phase 1's last level combined each parent pair once: phase 1
# builds every level's vectors, and phase 2 builds and groups every
# position of every level.  Both name as witness the least flagged packed
# state of the first flagged level.


def phase1_exact_reference(j, level, comb):
    """(excluded, witness level, witness state), checking every state of
    every vector."""
    need = 2 * j
    sa, sb = _pack(alt_state("a", comb.cap)), _pack(alt_state("b", comb.cap))
    vectors = {()}
    for n in range(2, level + 1):
        nxt, hits = set(), []
        for vec in vectors:
            ext = (sb,) + vec + (sa,)  # parents of x are ext[x - 1], ext[x]
            zero = [comb[ext[x] << 24 | ext[x - 1]] for x in range(1, n)]
            one = [comb[ext[x - 1] << 24 | ext[x]] for x in range(1, n)]
            hits += [s for s in zero + one if _reference_flagged(s, need)]
            if n == level:
                continue
            options = [(s0,) if s0 == s1 else (s0, s1)
                       for s0, s1 in zip(zero, one)]
            nxt.update(itertools.product(*options))
        if hits:
            return False, n, _unpack(min(hits))
        vectors = nxt
    return True, level, None


def phase2_reachable_reference(j, level, comb, max_bytes=None):
    """(excluded, reach, witness) with every position of every level built;
    ResourceCap once the pairs of a level below `level` hold more than
    `max_bytes` at 256 bytes a pair."""
    need = 2 * j
    sa, sb = _pack(alt_state("a", comb.cap)), _pack(alt_state("b", comb.cap))
    reach = {(1, 0): {sa}, (0, 1): {sb}}
    witness = None
    pairs = [{(sa, sb)}]
    for n in range(1, level):
        by_left, by_right = [], []
        for cur in pairs:
            left, right = {}, {}
            for a, b in cur:
                kids = comb[a << 24 | b], comb[b << 24 | a]
                left.setdefault(a, set()).update(kids)
                right.setdefault(b, set()).update(kids)
            by_left.append(left)
            by_right.append(right)
        first = set().union(*by_left[0].values())
        last = set().union(*by_right[n - 1].values())
        pairs = [{(sa, c) for c in first}]
        lproj, rproj = [{sa}], [first]
        for i in range(1, n):
            cur, lo, hi = set(), set(), set()
            left = by_left[i]
            for m, rs in by_right[i - 1].items():
                ls = left.get(m)
                if ls is not None:
                    cur.update(itertools.product(rs, ls))
                    lo |= rs
                    hi |= ls
            pairs.append(cur)
            lproj.append(lo)
            rproj.append(hi)
        pairs.append({(c, sb) for c in last})
        if max_bytes is not None and n + 1 < level:
            held = 256 * sum(map(len, pairs))
            if held > max_bytes:
                raise ResourceCap(f"phase 2 pairs at level {n + 1} hold "
                                  f"about {held} bytes, over the "
                                  f"{max_bytes}-byte cap")
        lproj.append(last)
        rproj.append({sb})
        reach[(n + 1, 0)] = {sa}
        reach[(0, n + 1)] = {sb}
        hits = []
        for pos in range(1, n + 1):
            states = lproj[pos] | rproj[pos - 1]
            reach[(n + 1 - pos, pos)] = states
            hits += [s for s in states if _reference_flagged(s, need)]
        if witness is None and hits:
            witness = n + 1, _unpack(min(hits))
    return witness is None, reach, witness


def reachable_alt_states(L):
    """Phase-2 reachable sets as AltState tuples, for soundness probes."""
    _, reach, _ = _phase2_reachable(1, L, _Combiner(ALT_CAP))
    return {v: {_unpack(s) for s in states} for v, states in reach.items()}


# Reference block parsers: the periodic search over every block at every
# level with a binary search for the minimal absent length, the decoder
# that re-tokenizes every segment, and the run-context scan that walks a
# list of every run of the block.

def periodic_reference(xi, p, L, words=None):
    """`periodic_exclusion` by scanning the whole corpus for each window."""
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
    if not w:
        raise ParseError("empty word", 0)
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


SCHEME_COUNT_CAP = 16  # split-scheme counts stop once they reach this


def factorization_scheme_counts_reference(xi, k, n):
    """(level-n vertex, level m) -> the number of split schemes of the
    vertex's block down to level m, for k <= m < n, capped at
    `SCHEME_COUNT_CAP`.  A scheme repeatedly cuts a block word into two
    words that are both blocks one level down (one-letter boundary blocks
    persist unsplit) until level m is reached.  Each (vertex, m) is
    counted from scratch, with a fresh memo; the blocks of each level
    must be distinct."""
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
                    if total >= SCHEME_COUNT_CAP:
                        break
        memo[key] = total
        return total

    for x in range(n + 1):
        word = next(w for w, v in levels[n].items() if v == (x, n - x))
        for m in range(k, n):
            counts[(Vertex(x, n - x), m)] = count(word, n, m, {})
    return counts


class AnyParents:
    """Not an ordering: each vertex concatenates the blocks of two vertices
    of the level below drawn at random.  Such blocks split in many ways,
    which no ordering's blocks do.  It has `parents` and nothing else, so
    code that reads order any other way fails on it."""

    def __init__(self, seed):
        self.seed = seed

    def parents(self, x, y):
        rng = random.Random(f"{self.seed}/{x}/{y}")
        lvl = x + y - 1
        return tuple((i, lvl - i)
                     for i in (rng.randint(0, lvl), rng.randint(0, lvl)))


def _tail(s, m):
    return s[-m:] if m else ""


class LanguageScanReference:
    """The language scan that stores each block short enough to hold a
    window plus context (length <= max(2n, 4)) whole and re-adds all its
    windows; longer blocks add only their junction windows."""

    def __init__(self, xi, n):
        self.xi = xi
        self.n = n
        self.short_cap = max(2 * n, 4)
        self.words = set()
        self.level = 0
        self._ends = {}

    def _add_windows(self, text):
        n = self.n
        for i in range(len(text) - n + 1):
            self.words.add(text[i:i + n])

    def advance_to(self, level):
        ends = self._ends
        m = self.n - 1
        while self.level < level:
            self.level += 1
            lvl = self.level
            ends[(lvl, 0)] = ("a", "a")
            ends[(0, lvl)] = ("b", "b")
            if lvl == 1:
                self._add_windows("a")
                self._add_windows("b")
            for x in range(1, lvl):
                y = lvl - x
                c1, c2 = self.xi.parents(x, y)
                (h1, t1), (h2, t2) = ends[c1], ends[c2]
                if binomial(lvl, x) <= self.short_cap:
                    text = h1 + h2
                    ends[(x, y)] = (text, text)
                    self._add_windows(text)
                else:
                    self._add_windows(_tail(t1, m) + h2[:m])
                    ends[(x, y)] = ((h1 + h2)[:m], _tail(t1 + t2, m))


def language_words_reference(xi, n, L):
    """`language_words` over the reference scan."""
    scan = LanguageScanReference(xi, n)
    scan.advance_to(max(L, 1))
    return scan.words


def stabilized_complexity_reference(xi, n, max_level):
    """`stabilized_complexity` over the reference scan."""
    scan = LanguageScanReference(xi, n)
    counts = []
    for lvl in range(1, max_level + 1):
        scan.advance_to(lvl)
        counts.append(len(scan.words))
        if (len(counts) >= 3 and counts[-1] > 0
                and counts[-1] == counts[-2] == counts[-3]):
            return counts[-1], lvl, True
    return counts[-1], max_level, False


def _runs(w):
    """(letter, start, length) of every maximal run of w, left to right."""
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] != w[i - 1]:
            out.append((w[start], start, i - start))
            start = i
    return out


def scan_block_contexts_reference(w, l, inner, report):
    """Tally the run contexts of one block by walking its run list."""
    runs = _runs(w)
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


def run_context_report_reference(xi, l, L, pattern="bab-run"):
    """`run_context_report` over the run list of every block."""
    inner = "a" if pattern == "bab-run" else "b"
    report = RunContextReport(pattern, l, L)
    for n in range(2, L + 1):
        for x in range(1, n):
            scan_block_contexts_reference(basic_block(xi, x, n - x), l, inner,
                                          report)
    return report


# Reference Monte Carlo loop: every target of every trial shuffled from its
# own keyed bit stream, then the whole level tested with `uniform_base`.

def keyed_bits(key):
    """The bits of blake2b(key), then of blake2b(key + counter) for the
    8-byte little-endian counters 1, 2, ...; each 64-byte digest is read
    as a little-endian int and given low bit first."""
    for counter in itertools.count():
        suffix = struct.pack("<Q", counter) if counter else b""
        value = int.from_bytes(hashlib.blake2b(key + suffix).digest(), "little")
        for b in range(512):
            yield (value >> b) & 1


def draw_index(bits, m):
    """An index below m from the bit iterator `bits`: the value of the
    next m.bit_length() bits, low bit first, drawn again while it is m or
    more."""
    k = m.bit_length()
    while True:
        value = sum(next(bits) << b for b in range(k))
        if value < m:
            return value


def keyed_order_reference(seed, trial, level, vertex, items):
    """Fisher-Yates shuffle of `items`, index i drawn below i + 1 from the
    bits keyed by (seed, trial, level, vertex)."""
    bits = keyed_bits(struct.pack("<QQQQ", seed & (2**64 - 1), trial, level,
                                  vertex))
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = draw_index(bits, i + 1)
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def uniform_hits_reference(shapes, seed, lo, hi):
    hits = []
    for lvl_idx, shape in enumerate(shapes):
        edges = [shape.in_edges(t) for t in range(shape.target_count)]
        count = 0
        for trial in range(lo, hi):
            words = tuple(keyed_order_reference(seed, trial, lvl_idx, t,
                                                edges[t])
                          for t in range(shape.target_count))
            if uniform_base(words) is not None:
                count += 1
        hits.append(count)
    return hits


def exact_uniform_probability_reference(shape):
    """The uniform-level probability by enumerating all prod_t deg_t! edge
    orders: the share whose target words are powers of one word."""
    degrees = [shape.in_degree(t) for t in range(shape.target_count)]
    per_target = [list(itertools.permutations(range(d))) for d in degrees]
    edge_lists = [shape.in_edges(t) for t in range(shape.target_count)]
    good = 0
    for combo in itertools.product(*per_target):
        words = [tuple(edge_lists[t][i] for i in perm)
                 for t, perm in enumerate(combo)]
        if uniform_base(words) is not None:
            good += 1
    total = 1
    for d in degrees:
        total *= factorial(d)
    return Fraction(good, total)
