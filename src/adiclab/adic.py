"""Vershik successor dynamics on path prefixes and the return-time table.

The successor replaces the lowest non-maximal edge of a prefix by the
other incoming edge of its range vertex and refills everything below with
a minimal path.  It is kept partial: a prefix at the end of its column
raises ColumnEnd and callers decide how to deepen.
"""

import math
from collections import Counter
from typing import NamedTuple

from .coding import CylSymbol
from .core import (A_STEP, B_STEP, OrderingTable, PathPrefix, Vertex, _pivot,
                   binomial, blake2b, check_seed, column_size, rank,
                   seeded_ordering, unrank)
from .errors import ColumnEnd, ResourceCap


def successor(xi: OrderingTable, p: PathPrefix) -> PathPrefix:
    """The next-larger path to the same terminal vertex (rank + 1)."""
    steps = list(p.steps)
    if not _pivot(xi, steps, 1):
        raise ColumnEnd(f"maximal path to {tuple(p.terminal)}")
    return PathPrefix(tuple(steps))


def predecessor(xi: OrderingTable, p: PathPrefix) -> PathPrefix:
    """Inverse of `successor`; raises ColumnEnd at the column bottom."""
    steps = list(p.steps)
    if not _pivot(xi, steps, 0):
        raise ColumnEnd(f"minimal path to {tuple(p.terminal)}")
    return PathPrefix(tuple(steps))


def _check_k(p: PathPrefix, k: int) -> None:
    if not 0 <= k <= len(p):
        raise ValueError("k must not exceed the prefix length")


def orbit_coding(xi: OrderingTable, p: PathPrefix, k: int, window) -> tuple:
    """Symbols of the k-coding of p over iterate times window = (t0, t1).

    The whole window must stay inside the column of p's terminal vertex;
    otherwise ColumnEnd is raised and the caller should deepen p.
    """
    t0, t1 = window
    _check_k(p, k)
    if t1 < t0:
        raise ValueError("empty window")
    r = rank(xi, p)
    size = column_size(p.terminal)
    if r + t0 < 0 or r + t1 >= size:
        raise ColumnEnd(
            f"window [{t0},{t1}] leaves column of {tuple(p.terminal)}")
    steps = list(unrank(xi, p.terminal, r + t0).steps)
    symbols = {}  # head steps -> symbol; at most 2^k heads recur
    out = []
    for t in range(t1 - t0 + 1):
        if t:
            _pivot(xi, steps, 1)
        head = tuple(steps[:k])
        sym = symbols.get(head)
        if sym is None:
            # the head's b steps are the m of its terminal (k - m, m)
            sym = symbols[head] = CylSymbol(
                k, sum(head), rank(xi, PathPrefix(head)) + 1)
        out.append(sym)
    return tuple(out)


class KinkCase(NamedTuple):
    """One of the eight (a1, a2, a3) configurations.

    a1: status of the path's edge out of (i, j); a2: status of the other
    edge out of (i, j); a3: 'LR' when the path's edge goes to (i+1, j),
    'RL' when it goes to (i, j+1).
    """

    a1: str
    a2: str
    a3: str


KINK_CASES = tuple(KinkCase(a1, a2, a3)
                   for a1 in ("max", "min")
                   for a2 in ("max", "min")
                   for a3 in ("LR", "RL"))


def kink_classify(xi: OrderingTable, p: PathPrefix) -> KinkCase:
    """Classify the kink configuration at the end of p.

    p must pass through an interior (i, j), continue to (i+1, j+1), and
    enter (i+1, j+1) along a minimal edge.
    """
    term = p.terminal
    i, j = term.x - 1, term.y - 1
    if i < 1 or j < 1:
        raise ValueError(f"({i},{j}) is not interior")
    if p.steps[-2:] not in ((A_STEP, B_STEP), (B_STEP, A_STEP)):
        raise ValueError("path does not pass through (i, j)")
    gamma_step = p.steps[-2]
    mid, other_mid = (i + 1, j), (i, j + 1)
    if gamma_step == B_STEP:
        mid, other_mid = other_mid, mid
    if xi.parents(*term)[0] != mid:
        raise ValueError("edge into (i+1, j+1) is not minimal")
    a1 = "max" if xi.parents(*mid)[1] == (i, j) else "min"
    a2 = "max" if xi.parents(*other_mid)[1] == (i, j) else "min"
    a3 = "LR" if gamma_step == A_STEP else "RL"
    return KinkCase(a1, a2, a3)


def kink_return_time(case: KinkCase, n: int, j: int) -> int:
    """Return time r_n for a kink at (i, j) with n = i + j."""
    if not 1 <= j < n:
        raise ValueError(f"1 <= j < n, not j = {j} at n = {n}")
    key = (case.a1, case.a2, case.a3)
    if key in (("max", "min", "LR"), ("max", "min", "RL")):
        return binomial(n, j)
    if key in (("min", "min", "RL"), ("max", "max", "LR")):
        return binomial(n + 1, j + 1)
    if key in (("min", "min", "LR"), ("max", "max", "RL")):
        return binomial(n + 1, j)
    if key in (("min", "max", "LR"), ("min", "max", "RL")):
        return binomial(n + 1, j) + binomial(n, j + 1)
    raise ValueError(f"not a kink case: {case}")


def kink_verify(xi: OrderingTable, p: PathPrefix) -> bool:
    """Check that the r_n-th successor of p repeats its first n edges.

    p runs through interior (i, j) at level n = i + j and enters
    (i + 1, j + 1) by its minimal edge.  T^(r_n)(p) is read in p's own
    column, of size C = C(n + 2, j + 1) = C(n + 1, j) + C(n + 1, j + 1),
    as the path of rank rank(p) + r_n.  That rank always exists:

    - The last edge is minimal, so rank(p) = rank(p[:n + 1]).  That rank
      is below C(n + 1, j) for LR with a1 = max, below C(n + 1, j + 1)
      for RL with a1 = max, and below C(n, j) when a1 = min (the edge
      out of (i, j) is minimal too, so rank(p) = rank(p[:n])).
    - Add each case's r_n from `kink_return_time`, and use
      C(n, j) < C(n + 1, j) (as j >= 1) and C(n, j) < C(n + 1, j + 1)
      (as i >= 1):
      (max, min, LR): below C(n + 1, j) + C(n, j) < C;
      (max, min, RL): below C(n + 1, j + 1) + C(n, j) < C;
      (max, max, LR): below C(n + 1, j) + C(n + 1, j + 1) = C;
      (max, max, RL): below C(n + 1, j + 1) + C(n + 1, j) = C;
      (min, min, LR): below C(n, j) + C(n + 1, j) < C;
      (min, min, RL): below C(n, j) + C(n + 1, j + 1) < C;
      (min, max, LR and RL): below
      C(n, j) + C(n + 1, j) + C(n, j + 1) = C.
    - So rank(p) + r_n <= C - 1 in all eight cases, and equality is
      reachable only when a2 = max.

    Were the bound ever to fail, `unrank` would raise ValueError, so the
    check cannot pass silently.
    """
    n = len(p) - 2
    r = kink_return_time(kink_classify(xi, p), n, p.vertex_at(n).y)
    return unrank(xi, p.terminal, rank(xi, p) + r).steps[:n] == p.steps[:n]


def sample_kink_configuration(seed: int, trial: int, max_n: int):
    """Deterministic (ordering, path) pair ending in a kink configuration."""
    import random
    import struct

    check_seed(seed)
    key = blake2b(struct.pack("<QQ", seed, trial),
                  digest_size=8).digest()
    rng = random.Random(int.from_bytes(key, "little"))
    xi = seeded_ordering(rng.getrandbits(63))
    n = rng.randint(2, max_n)
    i = rng.randint(1, n - 1)
    j = n - i
    prefix = unrank(xi, Vertex(i, j), rng.randrange(column_size(Vertex(i, j))))
    # exactly one branch direction makes the edge into (i+1, j+1) minimal
    if xi.parents(i + 1, j + 1)[0] == (i + 1, j):
        steps = (0, 1)
    else:
        steps = (1, 0)
    return xi, prefix.extend(steps)


def kink_trials(seed: int, lo: int, hi: int, max_n: int):
    """(cases, failures) over the trials lo..hi-1: a Counter of KinkCase
    and how many fail `kink_verify`.  A trial depends on (seed, trial)
    alone, so the parts of a split range sum to the whole's counts."""
    cases = Counter()
    failures = 0
    for trial in range(lo, hi):
        xi, path = sample_kink_configuration(seed, trial, max_n)
        cases[kink_classify(xi, path)] += 1
        if not kink_verify(xi, path):
            failures += 1
    return cases, failures


def _check_prime(q: int):
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"q = {q} is not prime")


def binom_mod(n: int, k: int, q: int) -> int:
    """C(n, k) mod prime q by Lucas' theorem on base-q digits; 0 when
    k < 0 or k > n, as C(n, k) is.  A negative n is refused."""
    _check_prime(q)
    if n < 0:
        raise ValueError(f"n >= 0, not n = {n}")
    if k < 0 or k > n:
        return 0
    r = 1
    while n or k:
        nd, kd = n % q, k % q
        if kd > nd:
            return 0
        r = r * math.comb(nd, kd) % q
        n //= q
        k //= q
    return r


ROW_BOUND = 2**20  # the largest row length q^s a row check builds


def weakmixing_row_check(q: int, s: int) -> bool:
    """Check the two mod-q facts behind the no-rational-eigenvalue argument.

    For n = q^s - 2 the row satisfies C(n, k) = (-1)^k (k+1) mod q for all
    k, and every entry of row q^s - 1 is nonzero mod q.
    """
    _check_prime(q)
    if s < 1:
        raise ValueError("s >= 1")
    big = q**s
    if big > ROW_BOUND:
        raise ResourceCap(f"q^s = {big} exceeds bound {ROW_BOUND}")
    n = big - 2
    for k in range(n + 1):
        if binom_mod(n, k, q) != ((-1) ** k * (k + 1)) % q:
            return False
    return all(binom_mod(big - 1, t, q) != 0 for t in range(big))
