import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiclab.adic import (KINK_CASES, KinkCase, binom_mod, kink_classify,
                          kink_return_time, kink_trials, kink_verify,
                          orbit_coding, predecessor,
                          sample_kink_configuration, successor,
                          weakmixing_row_check)
from adiclab.coding import CylSymbol, basic_block, basic_block_k
from adiclab.core import (MAX, MIN, PathPrefix, Vertex, binomial, column_size,
                          constant_ordering, explicit_ordering, extreme_path,
                          minimal_continuation, rank, rule_ordering,
                          seeded_ordering, unrank)
from adiclab.errors import ColumnEnd

from conftest import (all_paths, extreme_path_reference,
                      kink_classify_reference, kink_verify_reference,
                      letters_from_k1, minimal_continuation_reference,
                      orbit_coding_reference, orderings, predecessor_reference,
                      rank_reference, seeds, successor_reference,
                      unrank_reference)


def test_successor_two_element_column():
    xi0 = constant_ordering(0)
    p = PathPrefix.from_word("ab")
    assert successor(xi0, p).word() == "ba"
    with pytest.raises(ColumnEnd):
        successor(xi0, PathPrefix.from_word("ba"))
    with pytest.raises(ColumnEnd):
        predecessor(xi0, p)
    assert predecessor(xi0, PathPrefix.from_word("ba")) == p


def test_successor_visits_column_in_rank_order():
    for xi in seeds(50):
        for level in (5, 8):
            for x in range(level + 1):
                v = Vertex(x, level - x)
                p = extreme_path(xi, v, MIN)
                for expected in range(column_size(v)):
                    assert rank(xi, p) == expected
                    assert p.terminal == v
                    if expected < column_size(v) - 1:
                        p = successor(xi, p)
                with pytest.raises(ColumnEnd):
                    successor(xi, p)


def test_predecessor_inverts_successor_level_8():
    xi = seeded_ordering(23)
    for p in all_paths(8):
        if rank(xi, p) < column_size(p.terminal) - 1:
            assert predecessor(xi, successor(xi, p)) == p


def test_successor_keeps_terminal_and_bumps_rank():
    xi = seeded_ordering(40)
    for p in all_paths(7):
        if rank(xi, p) < column_size(p.terminal) - 1:
            q = successor(xi, p)
            assert q.terminal == p.terminal
            assert rank(xi, q) == rank(xi, p) + 1


def test_orbit_coding_basics():
    xi0 = constant_ordering(0)
    p = extreme_path(xi0, Vertex(1, 1), MIN)
    assert letters_from_k1(orbit_coding(xi0, p, 1, (0, 1))) == "ab"

    xi = seeded_ordering(4)
    q = PathPrefix.from_word("abba")
    (sym,) = orbit_coding(xi, q, 4, (0, 0))
    assert sym == CylSymbol(4, 2, rank(xi, q) + 1)

    with pytest.raises(ColumnEnd):
        orbit_coding(xi0, p, 1, (0, 2))
    with pytest.raises(ColumnEnd):
        orbit_coding(xi0, p, 1, (-1, 0))


def test_orbit_coding_negative_window():
    xi = seeded_ordering(14)
    v = Vertex(3, 3)
    second = successor(xi, extreme_path(xi, v, MIN))
    back_and_here = orbit_coding(xi, second, 2, (-1, 0))
    for sym, p in zip(back_and_here, (extreme_path(xi, v, MIN), second)):
        head = p.prefix(2)
        assert sym == CylSymbol(2, head.terminal.y, rank(xi, head) + 1)


def test_orbit_coding_full_column_equals_block_exhaustive():
    for xi in seeds(3):
        for n in range(1, 9):
            for x in range(n + 1):
                v = Vertex(x, n - x)
                p = extreme_path(xi, v, MIN)
                for k in range(1, n + 1):
                    w = orbit_coding(xi, p, k, (0, column_size(v) - 1))
                    assert w == basic_block_k(xi, k, x, n - x)


def test_orbit_coding_k1_matches_letters():
    xi = seeded_ordering(8)
    v = Vertex(3, 4)
    p = extreme_path(xi, v, MIN)
    w = orbit_coding(xi, p, 1, (0, column_size(v) - 1))
    assert letters_from_k1(w) == basic_block(xi, 3, 4)


def test_kink_return_time_table():
    n, j = 9, 4
    assert kink_return_time(KinkCase("max", "min", "LR"), n, j) == binomial(n, j)
    assert kink_return_time(KinkCase("max", "min", "RL"), n, j) == binomial(n, j)
    assert kink_return_time(KinkCase("min", "min", "RL"), n, j) == binomial(n + 1, j + 1)
    assert kink_return_time(KinkCase("max", "max", "LR"), n, j) == binomial(n + 1, j + 1)
    assert kink_return_time(KinkCase("min", "min", "LR"), n, j) == binomial(n + 1, j)
    assert kink_return_time(KinkCase("max", "max", "RL"), n, j) == binomial(n + 1, j)
    assert kink_return_time(KinkCase("min", "max", "LR"), n, j) == \
        binomial(n + 1, j) + binomial(n, j + 1)
    assert kink_return_time(KinkCase("min", "max", "RL"), n, j) == \
        binomial(n + 1, j) + binomial(n, j + 1)
    assert len(KINK_CASES) == 8


def test_kink_classify_preconditions():
    xi = seeded_ordering(5)
    with pytest.raises(ValueError, match=r"^\(1,0\) is not interior$"):
        kink_classify(xi, PathPrefix.from_word("aab"))  # terminal not interior enough
    with pytest.raises(ValueError, match=r"^path does not pass through \(i, j\)$"):
        kink_classify(xi, PathPrefix.from_word("ababaa"))  # does not pass (i, j)
    with pytest.raises(ValueError, match=r"^edge into \(i\+1, j\+1\) is not minimal$"):
        kink_classify(constant_ordering(1), PathPrefix.from_word("abab"))
    assert kink_classify(constant_ordering(0), PathPrefix.from_word("abab")) \
        == KinkCase("max", "min", "LR")


@settings(max_examples=200, deadline=None)
@given(xi=orderings(),
       head=st.lists(st.integers(0, 1), min_size=0, max_size=58),
       tail=st.sampled_from([(0, 1), (1, 0), (0, 0), (1, 1)]))
def test_kink_classify_matches_reference(xi, head, tail):
    p = PathPrefix(tuple(head) + tail)
    try:
        want = kink_classify_reference(xi, p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            kink_classify(xi, p)
    else:
        assert kink_classify(xi, p) == want


def test_kink_explicit_max_min_lr_configuration():
    # (max, min, LR) at (i, j) = (2, 2): gamma enters (3, 2) maximally,
    # the other edge into (2, 3) is minimal, and the edge into (3, 3) is
    # minimal; every other bit 0.
    xi = explicit_ordering({(3, 2): 0, (2, 3): 0, (3, 3): 0}, max_level=64)
    p = extreme_path(xi, Vertex(2, 2), MIN).extend((0, 1))
    case = kink_classify(xi, p)
    assert case == KinkCase("max", "min", "LR")
    assert kink_return_time(case, 4, 2) == binomial(4, 2)
    assert kink_verify(xi, p)


def test_kink_verify_sampled_and_nonvacuous():
    seen = {}
    broken = set()
    for trial in range(250):
        xi, p = sample_kink_configuration(77, trial, 10)
        case = kink_classify(xi, p)
        seen[case] = seen.get(case, 0) + 1
        assert kink_verify(xi, p)
        if case not in broken:
            if not kink_verify_reference(xi, p, 1) \
                    or not kink_verify_reference(xi, p, -1):
                broken.add(case)
    assert len(seen) == 8
    assert broken == set(seen)  # r_n is sharp in at least one case per class


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_kink_sampling_refuses_a_seed_outside_u64(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_kink_configuration(seed, 0, 7)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 12),
       st.integers(2, 9), st.data())
def test_kink_trials_sum_the_per_trial_loop(seed, lo, count, max_n, data):
    hi = lo + count
    cases, failures = Counter(), 0
    for trial in range(lo, hi):
        xi, p = sample_kink_configuration(seed, trial, max_n)
        cases[kink_classify(xi, p)] += 1
        failures += not kink_verify(xi, p)
    got = kink_trials(seed, lo, hi, max_n)
    assert got == (cases, failures)
    assert all(type(case) is KinkCase for case in got[0])
    # a trial depends on (seed, trial) alone, so any split sums the same
    mid = data.draw(st.integers(lo, hi))
    left = kink_trials(seed, lo, mid, max_n)
    right = kink_trials(seed, mid, hi, max_n)
    assert (left[0] + right[0], left[1] + right[1]) == got


def test_kink_window_fits_in_the_path_column():
    # every kink configuration with n <= 9: rank(p) + r_n stays inside the
    # column of (i + 1, j + 1), and reaches its top exactly when a2 = max
    tables = [constant_ordering(0), constant_ordering(1),
              *(seeded_ordering(seed) for seed in range(6))]
    slack = {}
    for xi in tables:
        for n in range(2, 10):
            for j in range(1, n):
                i = n - j
                top = binomial(n + 2, j + 1) - 1
                step = (0, 1) if xi.parents(i + 1, j + 1)[0] == (i + 1, j) \
                    else (1, 0)
                for r in range(binomial(n, j)):
                    p = unrank(xi, Vertex(i, j), r).extend(step)
                    case = kink_classify(xi, p)
                    fit = top - rank(xi, p) - kink_return_time(case, n, j)
                    assert fit >= 0
                    slack[case] = min(fit, slack.get(case, fit))
                    assert kink_verify(xi, p)
    assert set(slack) == set(KINK_CASES)
    assert {case for case, low in slack.items() if low == 0} == \
        {case for case in KINK_CASES if case.a2 == "max"}


@settings(deadline=None)
@given(st.integers(0, 2**63 - 1),
       st.lists(st.integers(0, 1), min_size=1, max_size=16),
       st.integers(0, 40))
def test_successor_power_is_unrank_shift(seed, steps, count):
    xi = seeded_ordering(seed)
    p = PathPrefix(tuple(steps))
    v, r0 = p.terminal, rank(xi, p)
    for r in range(1, count + 1):
        if r0 + r == column_size(v):
            with pytest.raises(ColumnEnd):
                successor(xi, p)
            break
        p = successor(xi, p)
        assert p == unrank(xi, v, r0 + r)


def successor_kink_oracle(xi, p, offset):
    """kink_verify with every iterate taken by the successor, one at a time."""
    n = len(p) - 2
    r = kink_return_time(kink_classify(xi, p), n, p.vertex_at(n).y) + offset
    level = len(p)
    while True:
        ext = q = minimal_continuation(xi, p, level)
        try:
            for _ in range(r):
                q = successor(xi, q)
        except ColumnEnd:
            level *= 2
            continue
        return q.steps[:n] == ext.steps[:n]


@settings(deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(-1, 1))
def test_kink_verify_agrees_with_successor_iteration(seed, trial, offset):
    xi, p = sample_kink_configuration(seed, trial, 7)
    # off r_n the window may leave p's column, which only the reference
    # deepens past
    if offset:
        got = kink_verify_reference(xi, p, offset)
    else:
        got = kink_verify(xi, p)
    assert got == successor_kink_oracle(xi, p, offset)


def test_minimal_continuation_leaves_boundary():
    xi = seeded_ordering(6)
    ext = minimal_continuation(xi, PathPrefix.from_word("bbb"), 10)
    assert ext.terminal.x >= 1
    ext = minimal_continuation(xi, PathPrefix.from_word("aaa"), 10)
    assert ext.terminal.y >= 1
    assert minimal_continuation(xi, ext, len(ext)) == ext


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(xi=orderings(), steps=st.lists(st.integers(0, 1), max_size=40))
def test_successor_and_predecessor_match_reference(xi, steps):
    p = PathPrefix(tuple(steps))
    assert _outcome(successor, xi, p) == _outcome(successor_reference, xi, p)
    assert _outcome(predecessor, xi, p) == \
        _outcome(predecessor_reference, xi, p)


@settings(max_examples=300, deadline=None)
@given(xi=orderings(), steps=st.lists(st.integers(0, 1), max_size=60),
       level=st.integers(0, 60))
def test_minimal_continuation_matches_reference(xi, steps, level):
    p = PathPrefix(tuple(steps))
    assert _failure(minimal_continuation, xi, p, level) == \
        _failure(minimal_continuation_reference, xi, p, level)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       steps=st.lists(st.integers(0, 1), max_size=12))
def test_flipping_every_bit_reverses_every_column(seed, steps):
    # the walks reach maximal paths and predecessors through this symmetry
    xi = seeded_ordering(seed)
    flipped = rule_ordering(lambda x, y: 1 - xi.bit(x, y), "flipped")
    p = PathPrefix(tuple(steps))
    v = p.terminal
    assert rank(flipped, p) == column_size(v) - 1 - rank(xi, p)
    assert extreme_path(xi, v, MAX) == extreme_path(flipped, v, MIN)
    assert _outcome(predecessor, xi, p) == _outcome(successor, flipped, p)


def _failure(fn, *args):
    """The value of fn(*args), or the type and message of its exception."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def bounded_explicit_orderings(draw):
    """An explicit ordering bounded at a level from 2 to 8, random below."""
    max_level = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = {(x, n - x): rng.randrange(2) for n in range(2, max_level + 1)
            for x in range(1, n)}
    return explicit_ordering(bits, max_level, draw(st.integers(0, 1)))


@settings(max_examples=300, deadline=None)
@given(xi=bounded_explicit_orderings(),
       steps=st.lists(st.integers(0, 1), max_size=12), data=st.data())
def test_walks_past_an_explicit_bound_fail_as_the_reference(xi, steps, data):
    # each walk either agrees with its reference or fails with the same
    # "explicit table bounded at level m" as the reference
    p = PathPrefix(tuple(steps))
    v = p.terminal
    r = data.draw(st.integers(0, column_size(v) - 1))
    level = data.draw(st.integers(0, 12))
    k = data.draw(st.integers(0, len(p)))
    t0 = data.draw(st.integers(-8, 8))
    window = (t0, t0 + data.draw(st.integers(0, 16)))
    pairs = [
        (rank, rank_reference, p),
        (unrank, unrank_reference, v, r),
        (extreme_path, extreme_path_reference, v, MIN),
        (extreme_path, extreme_path_reference, v, MAX),
        (successor, successor_reference, p),
        (predecessor, predecessor_reference, p),
        (minimal_continuation, minimal_continuation_reference, p, level),
        (orbit_coding, orbit_coding_reference, p, k, window),
    ]
    for walk, reference, *args in pairs:
        assert _failure(walk, xi, *args) == _failure(reference, xi, *args), \
            walk.__name__


@st.composite
def column_windows(draw, max_level):
    """(vertex, rank, t0, t1, k): an in-column window of at most 300 steps
    around the path of that rank, and a k up to the level."""
    level = draw(st.integers(1, max_level))
    x = draw(st.integers(0, level))
    v = Vertex(x, level - x)
    size = column_size(v)
    r = draw(st.integers(0, size - 1))
    t0 = draw(st.integers(-r, size - 1 - r))
    t1 = draw(st.integers(t0, min(t0 + 299, size - 1 - r)))
    return v, r, t0, t1, draw(st.integers(0, level))


@settings(max_examples=200, deadline=None)
@given(xi=orderings(), window=column_windows(20))
def test_orbit_coding_matches_reference(xi, window):
    v, r, t0, t1, k = window
    p = unrank(xi, v, r)
    assert orbit_coding(xi, p, k, (t0, t1)) == \
        orbit_coding_reference(xi, p, k, (t0, t1))


@settings(max_examples=200, deadline=None)
@given(xi=orderings(), window=column_windows(12))
def test_orbit_coding_is_a_slice_of_the_k_block(xi, window):
    # the k-block is built by concatenation, with no successor in sight
    v, r, t0, t1, k = window
    k = min(max(k, 1), 8)  # the k-blocks exist for 1 <= k <= 8
    p = unrank(xi, v, r)
    block = basic_block_k(xi, k, v.x, v.y)
    assert orbit_coding(xi, p, k, (t0, t1)) == block[r + t0:r + t1 + 1]


def test_binom_mod_lucas():
    assert binom_mod(5, 2, 3) == 1
    for q in (2, 3, 5, 7, 11):
        assert binom_mod(q, 1, q) == 0
        for n in range(201):
            for k in range(n + 1):
                assert binom_mod(n, k, q) == math.comb(n, k) % q
    with pytest.raises(ValueError):
        binom_mod(5, 2, 6)


def test_weakmixing_row_check():
    assert weakmixing_row_check(2, 1)
    assert weakmixing_row_check(3, 2)
    assert weakmixing_row_check(5, 3)
    from adiclab.errors import ResourceCap

    with pytest.raises(ResourceCap,
                       match=r"^q\^s = 2097152 exceeds bound 1048576$"):
        weakmixing_row_check(2, 21)


def test_orbit_coding_names_the_prefix():
    xi = seeded_ordering(9)
    p = PathPrefix.from_word("abab")
    (sym,) = orbit_coding(xi, p, 2, (0, 0))
    assert sym.k == 2 and sym.m == 1
    assert sym.s == rank(xi, PathPrefix.from_word("ab")) + 1


def test_orbit_coding_refuses_k_outside_the_path():
    xi = seeded_ordering(1)
    p = PathPrefix.from_word("abbaab")
    for k in (-1, len(p) + 1):
        with pytest.raises(ValueError, match="k must not exceed the prefix"):
            orbit_coding(xi, p, k, (0, 0))
    # the two ends: the empty head and the whole path
    assert orbit_coding(xi, p, 0, (0, 0)) == (CylSymbol(0, 0, 1),)
    assert orbit_coding(xi, p, len(p), (0, 0)) == \
        (CylSymbol(len(p), 3, rank(xi, p) + 1),)
