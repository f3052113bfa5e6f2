import json
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiclab.core import (BOTH_EXTREMAL, MAX, MIN, PathPrefix, Vertex, binomial,
                          column_size, constant_ordering, explicit_ordering,
                          extreme_path, make_ordering, minimal_continuation,
                          rank, seeded_ordering, tree_embedding_ordering,
                          unrank)
from adiclab.errors import InputError
from adiclab.factoring import small_subshift_orderings

from conftest import (all_paths, column_paths, compare_paths,
                      count_extremal_reference, extreme_path_reference,
                      orderings, rank_reference, seeded_bit_reference, seeds,
                      tree_embedding_ordering_reference, unrank_reference)


def pascal_table(n_max):
    """Independent oracle: the additive Pascal recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def test_binomial_against_recurrence_oracle():
    rows = pascal_table(25)
    for n in range(26):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]
    assert binomial(7, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(22, 11) == rows[22][11]
    assert binomial(3, 5) == 0
    for n, k in ((-1, 0), (0, -1), (-3, -2), (2, -5)):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            binomial(n, k)


def test_ordering_kinds_and_bits():
    xi0 = constant_ordering(0)
    assert xi0.bit(3, 4) == 0
    assert xi0.bit(3, 0) is BOTH_EXTREMAL
    xi1 = constant_ordering(1)
    assert xi1.bit(2, 2) == 1

    a = seeded_ordering(42)
    b = seeded_ordering(42)
    bits = [(x, y, a.bit(x, y)) for x in range(1, 9) for y in range(1, 9)]
    assert bits == [(x, y, b.bit(x, y)) for x in range(1, 9) for y in range(1, 9)]
    assert bits == [(x, y, a.bit(x, y)) for x in range(1, 9) for y in range(1, 9)]

    ex = explicit_ordering({(2, 2): 1}, max_level=4)
    assert ex.bit(2, 2) == 1
    assert ex.bit(1, 2) == 0  # default fill
    with pytest.raises(InputError, match="bounded at level 4"):
        ex.bit(3, 2)

    with pytest.raises(ValueError):
        constant_ordering(2)


@pytest.mark.parametrize("bits", [
    {(2.5, 2): 1}, {(2, 2): 1.7}, {(2, 2): "1"}, {(2, 2): True},
    {("2", 2): 1}, {(0, 2): 1}, {(2, 2): 2}, {(2, 3): 1}])
def test_explicit_ordering_refuses_entries_that_are_not_integer_bits(bits):
    # int() would read each of the first five as bit 1 at (2, 2)
    (x, y), b = next(iter(bits.items()))
    with pytest.raises(ValueError, match=re.escape(
            f"bad explicit bit ({x!r},{y!r})={b!r}")):
        explicit_ordering(bits, max_level=4)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       bias=st.sampled_from([0, 0.25, 0.5, 1]) | st.floats(0, 1),
       x=st.integers(1, 2**20), y=st.integers(1, 2**20))
def test_seeded_bit_matches_reference(seed, bias, x, y):
    assert seeded_ordering(seed, bias).bit(x, y) == \
        seeded_bit_reference(seed, x, y, bias)


def test_seeded_memo_is_coherent_across_threads():
    # four threads race through one fresh memo, each in its own order: every
    # thread reads a fresh table's bits, and the memo ends with one entry per
    # interior vertex to level 60 (a key computed twice in a race is stored
    # once, so misses are not pinned)
    keys = [(x, n - x) for n in range(2, 61) for x in range(1, n)]
    fresh = seeded_ordering(2024)
    expected = {key: fresh.bit(*key) for key in keys}
    rng = random.Random(7)
    orders = [keys, keys[::-1], rng.sample(keys, len(keys)),
              rng.sample(keys, len(keys))]
    xi = seeded_ordering(2024)
    start = threading.Barrier(len(orders))
    got = [None] * len(orders)

    def read(i):
        start.wait()
        got[i] = {key: xi.bit(*key) for key in orders[i]}

    threads = [threading.Thread(target=read, args=(i,))
               for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * len(orders)
    assert xi._lookup.cache_info().currsize == len(keys) == 1770


def test_seeded_identity_is_the_float_bias():
    for bias, same in ((1, 1.0), (0, 0.0), (Fraction(1, 2), 0.5)):
        xi, again = seeded_ordering(1, bias), seeded_ordering(1, same)
        assert xi.fingerprint() == again.fingerprint() == f"seeded:1:{same!r}"
        assert xi.to_json() == again.to_json()
        assert [xi.bit(x, 3) for x in range(1, 20)] == \
            [again.bit(x, 3) for x in range(1, 20)]


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**70])
def test_seed_outside_u64_refused(seed):
    with pytest.raises(ValueError, match="seed is an integer from 0 to 2"):
        seeded_ordering(seed)


def test_seed_u64_ends_accepted():
    for seed in (0, 2**64 - 1):
        assert seeded_ordering(seed).fingerprint() == f"seeded:{seed}:0.5"


def test_ordering_json_roundtrip():
    for doc in ({"kind": "constant", "bit": 1},
                {"kind": "seeded", "seed": 9, "bias": 0.25},
                {"kind": "explicit", "bits": [[2, 2, 1], [1, 1, 0]],
                 "maxLevel": 5},
                {"kind": "explicit", "bits": [[2, 2, 0], [1, 1, 0]],
                 "maxLevel": 5, "default": 1},
                {"kind": "tree", "depth": 2}):
        xi = make_ordering(doc)
        again = make_ordering(json.loads(xi.to_json()))
        probes = [(x, y) for x in range(1, 4) for y in range(1, 4)
                  if x + y <= 4]
        assert [xi.bit(x, y) for x, y in probes] == \
            [again.bit(x, y) for x, y in probes]
        assert again.fingerprint() == xi.fingerprint()


def test_path_prefix_basics():
    p = PathPrefix.from_word("aab")
    assert p.terminal == Vertex(2, 1)
    assert p.word() == "aab"
    assert p.vertex_at(2) == Vertex(2, 0)
    assert len(PathPrefix(())) == 0


@pytest.mark.parametrize("steps", [(2,), (-1,), ("a",), (None,), (0.5,),
                                   (0, 2, 1)])
def test_path_prefix_refuses_non_steps(steps):
    with pytest.raises(ValueError, match="steps must be 0"):
        PathPrefix(steps)


@pytest.mark.parametrize("steps", [(), (0,), (1, 0, 1)])
def test_path_prefix_accepts_steps(steps):
    assert PathPrefix(steps).steps == steps


def test_path_prefix_from_a_list_is_the_tuple_path():
    listed, tupled = PathPrefix([0, 1]), PathPrefix((0, 1))
    assert listed.steps == (0, 1)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert len({listed, tupled}) == 1
    assert listed.extend((0,)) == tupled.extend([0]) == PathPrefix((0, 1, 0))
    assert repr(listed) == "PathPrefix('ab')"


def test_extreme_paths():
    xi = seeded_ordering(3)
    for which in (MIN, MAX):
        assert extreme_path(xi, Vertex(4, 0), which).word() == "aaaa"
    xi0 = constant_ordering(0)
    assert extreme_path(xi0, Vertex(1, 1), MIN).word() == "ab"
    assert extreme_path(xi0, Vertex(1, 1), MAX).word() == "ba"


def test_extreme_path_refuses_an_unknown_side():
    xi = seeded_ordering(7)
    for which in ("mn", "MAX", None, 0):
        with pytest.raises(ValueError, match=f"^which is 'min' or 'max', "
                                             f"not {re.escape(repr(which))}$"):
            extreme_path(xi, Vertex(3, 2), which)


@pytest.mark.parametrize("xi", [
    constant_ordering(0), constant_ordering(1), seeded_ordering(7),
    tree_embedding_ordering(2), explicit_ordering({(1, 1): 1}, max_level=6),
    *small_subshift_orderings()], ids=lambda xi: xi.fingerprint())
def test_extreme_path_refuses_negative_vertices(xi):
    # a walk that reads bits must not start below the root: it would read
    # bits off the diagram, or never reach the boundary
    for v in [(-1, 2), (2, -1), (-1, -1)]:
        for which in (MIN, MAX):
            with pytest.raises(ValueError, match=re.escape(
                    f"no incoming edges at ({v[0]}, {v[1]})") + "$"):
                extreme_path(xi, Vertex(*v), which)


def test_rank_extremes_to_level_12():
    for xi in seeds(5):
        for level in (6, 12):
            for x in range(level + 1):
                v = Vertex(x, level - x)
                assert rank(xi, extreme_path(xi, v, MIN)) == 0
                assert rank(xi, extreme_path(xi, v, MAX)) == column_size(v) - 1


def test_rank_is_sort_position_level_8_50_seeds():
    # oracle: sort all paths of a column by pairwise order comparison
    import functools

    for xi in seeds(50):
        for level in (4, 8):
            for x in range(level + 1):
                col = column_paths(level, x)
                ordered = sorted(col, key=functools.cmp_to_key(
                    lambda p, q: compare_paths(xi, p, q)))
                for pos, p in enumerate(ordered):
                    assert rank(xi, p) == pos


def test_unrank_roundtrip_level_8_50_seeds():
    for xi in seeds(50):
        for p in all_paths(8):
            assert unrank(xi, p.terminal, rank(xi, p)) == p


@settings(max_examples=200, deadline=None)
@given(xi=orderings(), data=st.data())
def test_path_arithmetic_matches_reference(xi, data):
    level = data.draw(st.integers(1, 60))
    x = data.draw(st.integers(0, level))
    v = Vertex(x, level - x)
    for which in (MIN, MAX):
        assert extreme_path(xi, v, which) == \
            extreme_path_reference(xi, v, which)
    r = data.draw(st.integers(0, column_size(v) - 1))
    p = unrank(xi, v, r)
    assert p == unrank_reference(xi, v, r)
    assert rank(xi, p) == rank_reference(xi, p) == r
    q = PathPrefix(tuple(data.draw(st.lists(st.integers(0, 1), min_size=level,
                                            max_size=level))))
    assert rank(xi, q) == rank_reference(xi, q)


def test_unrank_bounds():
    xi = seeded_ordering(1)
    v = Vertex(3, 2)
    assert unrank(xi, v, 0) == extreme_path(xi, v, MIN)
    with pytest.raises(ValueError, match=r"^rank 10 not in \[0, 10\) at \(3, 2\)$"):
        unrank(xi, v, column_size(v))
    with pytest.raises(ValueError, match=r"^rank -1 not in \[0, 10\) at \(3, 2\)$"):
        unrank(xi, v, -1)


_XI7 = seeded_ordering(7)
_NON_INTEGER = [
    ("unrank-r", lambda v: unrank(_XI7, Vertex(3, 2), v), "r",
     [2.5, 9.99, True, "2"]),
    ("unrank-v", lambda v: unrank(_XI7, (v, 2), 0), "v", [3.0, True]),
    ("extreme_path-v", lambda v: extreme_path(_XI7, (v, 1), MIN), "v",
     [2.5, "1", False]),
    ("minimal_continuation-level",
     lambda v: minimal_continuation(_XI7, PathPrefix((0, 1)), v), "level",
     [4.5, True, "5"]),
]


@pytest.mark.parametrize("call, value, name", [
    pytest.param(call, value, name, id=f"{fn}-{value!r}")
    for fn, call, name, values in _NON_INTEGER for value in values])
def test_walks_refuse_non_integer_arguments(call, value, name):
    # a float, a string or a bool is refused, as `explicit_ordering` does,
    # not read as the int it truncates to or equals
    with pytest.raises(ValueError, match=rf"(?<!\w){name}(?!\w)"):
        call(value)


def test_order_totality_small():
    xi = seeded_ordering(17)
    for x in range(6):
        col = column_paths(5, x)
        for i, p in enumerate(col):
            for q in col[i + 1:]:
                assert compare_paths(xi, p, q) == -compare_paths(xi, q, p) != 0


def test_tree_embedding_doubles_minimal_prefixes():
    for d in (1, 2, 3):
        xi = tree_embedding_ordering(d)
        level = 2 ** (d + 1) - 1
        assert count_extremal_reference(xi, level, MIN) >= 2**d


def test_tree_bits_match_the_built_tree():
    # the reference builds the tree edge by edge, failing on a collision;
    # past level 2^(d+1) - 1 both read 0
    for d in range(1, 9):
        xi, ref = tree_embedding_ordering(d), tree_embedding_ordering_reference(d)
        assert (xi.to_json(), xi.fingerprint()) == \
            (ref.to_json(), ref.fingerprint())
        for n in range(2, 2 ** (d + 1) + 4):
            assert [xi.bit(x, n - x) for x in range(1, n)] == \
                [ref.bit(x, n - x) for x in range(1, n)], (d, n)


def test_tree_ordering_keeps_no_table():
    import tracemalloc

    tracemalloc.start()
    try:
        tree_embedding_ordering(10).bit(3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_tree_ordering_is_total_and_deterministic():
    xi = tree_embedding_ordering(2)
    seen = [xi.bit(x, y) for x in range(1, 10) for y in range(1, 10)]
    assert all(b in (0, 1) for b in seen)
    assert seen == [xi.bit(x, y) for x in range(1, 10) for y in range(1, 10)]
