import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adiclab.adic import KINK_CASES, kink_return_time
from adiclab.bratteli import (OrderedDiagram, is_uniformly_ordered,
                              odometer_certificate, pascal_as_diagram)
from adiclab.coding import (BlockStore, CylSymbol, basic_block, basic_block_k,
                            block_store, block_word_k,
                            enumerate_blocks, faithfulness_probe,
                            iter_restricted_blocks, language_words,
                            stabilized_complexity, symbol_census)
from adiclab.core import Vertex, binomial, constant_ordering, seeded_ordering
from adiclab.errors import InputError, ResourceCap
from adiclab.factoring import alternation_exclusion, small_subshift_orderings

from conftest import (WORKED_BLOCK, AnyParents, column_coding,
                      faithfulness_reference, language_words_reference,
                      letters_from_k1, orderings,
                      project_symbol_to_letter, seeds,
                      stabilized_complexity_reference, successor_sweep)


def brute_language(xi, n, L):
    words = set()
    for lvl in range(1, L + 1):
        for x in range(lvl + 1):
            blk = (basic_block(xi, x, lvl - x) if 0 < x < lvl
                   else ("a" if lvl == x else "b"))
            for i in range(len(blk) - n + 1):
                words.add(blk[i:i + n])
    return words


def test_base_blocks():
    xi = seeded_ordering(0)
    for i in range(1, 6):
        assert basic_block(xi, i, 0) == "a"
        assert basic_block(xi, 0, i) == "b"


def test_worked_example_block(worked_ordering):
    assert basic_block(worked_ordering, 4, 3) == WORKED_BLOCK


def test_extremal_alternation_blocks():
    xi, xi_prime = small_subshift_orderings()
    assert basic_block(xi, 3, 3) == "a" + "ab" * 9 + "b"
    assert basic_block(xi_prime, 3, 3) == "b" + "ba" * 9 + "a"


def test_block_lengths_and_recurrence():
    # four orderings to level 18, plus one driven out to level 25
    for deep, xi in [(18, s) for s in seeds(4)] + [(25, seeded_ordering(9))]:
        for n in range(1, deep + 1):
            for x in range(1, n):
                y = n - x
                word = basic_block(xi, x, y)
                assert len(word) == binomial(n, x)
                first, second = ((x, y - 1), (x - 1, y)) if xi.bit(x, y) == 0 \
                    else ((x - 1, y), (x, y - 1))

                def text(u, v):
                    return basic_block(xi, u, v) if u and v else ("a" if v == 0 else "b")

                assert word == text(*first) + text(*second)


def test_blocks_distinct_and_census_inverts():
    xi = seeded_ordering(12)
    for n in range(2, 13):
        blocks = [basic_block(xi, x, n - x) for x in range(1, n)]
        assert len(set(blocks)) == len(blocks)
        for x, word in enumerate(blocks, start=1):
            ca, cb, v = symbol_census(word)
            assert v == Vertex(x, n - x)
            assert ca == binomial(n - 1, x - 1)
            assert cb == binomial(n - 1, n - x - 1)


def test_symbol_census_specials():
    assert symbol_census("a") == (1, 0, Vertex(1, 0))
    assert symbol_census("aa") == (2, 0, Vertex(2, 0))
    assert symbol_census("ab") == (1, 1, Vertex(1, 1))
    assert symbol_census("aab") == (2, 1, Vertex(2, 1))
    assert symbol_census("abb") == (1, 2, Vertex(1, 2))
    assert symbol_census("aabb")[2] is None
    with pytest.raises(ValueError):
        symbol_census("abc")


def test_block_memory_cap():
    xi = seeded_ordering(99)
    store = BlockStore(xi, max_bytes=100)
    with pytest.raises(ResourceCap, match="block memo would exceed"):
        store.block(6, 6)
    assert store.bytes_used <= 100
    # k-blocks share the budget of the ordering's store
    xi = seeded_ordering(98)
    block_store(xi, 100)
    with pytest.raises(ResourceCap, match="block memo would exceed"):
        block_word_k(xi, 3, 6, 6)
    # the symbol tuple (8 bytes a symbol) must fit beside the memo, and
    # is not charged to it
    xi = seeded_ordering(6)
    store = block_store(xi, 2_000_000)
    block_word_k(xi, 3, 10, 10)
    used = store.bytes_used
    assert 8 * binomial(20, 10) < 2_000_000 < used + 8 * binomial(20, 10)
    with pytest.raises(ResourceCap, match="symbols at 8 bytes each"):
        basic_block_k(xi, 3, 10, 10)
    block_store(xi, 3_000_000)
    assert len(basic_block_k(xi, 3, 10, 10)) == binomial(20, 10)
    assert store.bytes_used == used
    # a zero budget stays zero on a fresh store
    xi = seeded_ordering(97)
    assert block_store(xi, 0).max_bytes == 0
    with pytest.raises(ResourceCap, match="block memo would exceed"):
        basic_block(xi, 2, 2)


def test_basic_block_k_base_enumeration():
    xi = seeded_ordering(7)
    for k in (1, 2, 3):
        for m in range(k + 1):
            word = basic_block_k(xi, k, k - m, m)
            assert word == tuple(CylSymbol(k, m, s)
                                 for s in range(1, binomial(k, m) + 1))
    with pytest.raises(InputError, match="below level 3"):
        basic_block_k(xi, 3, 1, 1)


def test_basic_block_k_projects_to_letters():
    for xi in seeds(3):
        for n in range(2, 9):
            for x in range(n + 1):
                for k in (1, 2, 3):
                    if n < k:
                        continue
                    syms = basic_block_k(xi, k, x, n - x)
                    projected = "".join(project_symbol_to_letter(xi, s)
                                        for s in syms)
                    blk = (basic_block(xi, x, n - x) if 0 < x < n
                           else ("a" if x == n else "b"))
                    assert projected == blk


def test_basic_block_k1_is_letter_naming():
    xi = seeded_ordering(31)
    assert letters_from_k1(basic_block_k(xi, 1, 3, 2)) == basic_block(xi, 3, 2)


def test_column_coding_matches_successor_sweep():
    for xi in seeds(5) + [constant_ordering(0), constant_ordering(1)]:
        for level in range(1, 13):
            for x in range(level + 1):
                for k in range(1, min(level, 3) + 1):
                    assert column_coding(xi, x, level - x, k) == \
                        successor_sweep(xi, x, level - x, k), (xi, x, k)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xi=orderings(), data=st.data())
def test_column_coding_matches_successor_sweep_property(xi, data):
    # sweep = concatenation on random columns: the k-block at (x, y) from
    # the block store against the column swept path by path
    level = data.draw(st.integers(1, 14))
    x = data.draw(st.integers(0, level))
    k = data.draw(st.integers(1, min(level, 8)))  # ids and masks fit a byte
    assert column_coding(xi, x, level - x, k) == \
        successor_sweep(xi, x, level - x, k)


def test_column_coding_k1_is_basic_block():
    for xi in seeds(3, base=30):
        for level in range(1, 11):
            for x in range(level + 1):
                sweep = column_coding(xi, x, level - x, 1)
                assert "".join("ab"[c] for c in sweep) == \
                    basic_block(xi, x, level - x)


def test_enumerate_blocks_counts():
    assert enumerate_blocks(3, 1) == {"aaab"}
    blocks42 = enumerate_blocks(4, 2)
    assert len(blocks42) == 8
    assert {len(w) for w in blocks42} == {15}
    assert len(enumerate_blocks(4, 4)) == 512
    with pytest.raises(ResourceCap, match="free bits exceed budget"):
        enumerate_blocks(7, 7)


def test_restricted_blocks_have_restricted_rows():
    for bits, word in iter_restricted_blocks(3, 3):
        assert word.startswith("a")  # C_x structure forces a leading a
        assert len(word) == binomial(6, 3)


def test_language_words_match_brute_force():
    for seed in (0, 4):
        xi = seeded_ordering(seed)
        for n in (1, 2, 3, 5, 8):
            for L in (3, 6, 10):
                assert language_words(xi, n, L) == brute_language(xi, n, L)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xi=orderings(), n=st.integers(1, 10), L=st.integers(1, 12))
def test_language_words_match_brute_force_property(xi, n, L):
    # by L = 12 every n <= 10 meets blocks no longer than a window and
    # blocks longer than their junction text of 2n - 2 letters
    assert language_words(xi, n, L) == brute_language(xi, n, L)


def test_language_words_read_order_only_through_parents():
    for seed in range(30):
        xi = AnyParents(seed)
        for n in (1, 2, 4, 7):
            for L in (1, 3, 6, 9):
                assert language_words(xi, n, L) == brute_language(xi, n, L)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xi=orderings(), n=st.integers(1, 24), L=st.integers(1, 30))
def test_language_scan_matches_reference_property(xi, n, L):
    # beyond the brute force's reach: the scan that stores short blocks whole
    assert language_words(xi, n, L) == language_words_reference(xi, n, L)
    assert stabilized_complexity(xi, n, L) == \
        stabilized_complexity_reference(xi, n, L)


def test_language_words_basics_and_monotone():
    xi = seeded_ordering(3)
    assert language_words(xi, 1, 2) == {"a", "b"}
    prev = set()
    for L in range(1, 19):
        cur = language_words(xi, 5, L)
        assert prev <= cur
        prev = cur


def test_language_contains_spread_runs():
    probe = "a" * 5 + "b" + "a" * 5
    for xi in seeds(20):
        assert probe in language_words(xi, 11, 20)


def test_complexity_flags():
    xi0 = constant_ordering(0)
    assert len(language_words(xi0, 1, 5)) == 2
    count, lvl, stab = stabilized_complexity(xi0, 5, 40)
    assert stab and count == 24  # frozen from the successor-iteration oracle


def test_complexity_not_stabilized_when_capped():
    xi0 = constant_ordering(0)
    count, lvl, stab = stabilized_complexity(xi0, 12, 6)
    assert not stab
    # three flat levels of no 12-window at all are no plateau
    assert stabilized_complexity(xi0, 12, 3) == (0, 3, False)


_EDGE_DIAGRAM = OrderedDiagram((((0,), (0,)), ((0, 1), (0, 1)),
                                ((0, 1, 1), (0, 1, 1, 0))))


@pytest.mark.parametrize("fn, args, name", [
    pytest.param(is_uniformly_ordered, (_EDGE_DIAGRAM, 0), "n",
                 id="uniform-0"),
    pytest.param(is_uniformly_ordered, (_EDGE_DIAGRAM, -1), "n",
                 id="uniform--1"),
    pytest.param(is_uniformly_ordered, (_EDGE_DIAGRAM, 4), "n",
                 id="uniform-4"),
    pytest.param(odometer_certificate, (_EDGE_DIAGRAM, 0), "search_depth",
                 id="odometer-0"),
    pytest.param(odometer_certificate, (_EDGE_DIAGRAM, -1), "search_depth",
                 id="odometer--1"),
    pytest.param(alternation_exclusion, (0, 9), "L", id="alternation-L0"),
    pytest.param(alternation_exclusion, (5, 0), "j", id="alternation-j0"),
    pytest.param(alternation_exclusion, (5, -1), "j", id="alternation-j-1"),
    pytest.param(alternation_exclusion, (5, 9, 0), "exact_level",
                 id="alternation-exact-level0"),
    pytest.param(kink_return_time, (KINK_CASES[0], 0, 0), "j",
                 id="kink-n0-j0"),
    pytest.param(kink_return_time, (KINK_CASES[0], 4, 4), "j",
                 id="kink-n4-j4"),
    pytest.param(pascal_as_diagram, (seeded_ordering(3), 0), "L",
                 id="pascal-diagram-L0"),
    pytest.param(pascal_as_diagram, (seeded_ordering(3), -1), "L",
                 id="pascal-diagram-L-1"),
    pytest.param(faithfulness_probe, (seeded_ordering(3), 4, 2, -3), "delta",
                 id="faithfulness-delta-3"),
    pytest.param(language_words, (seeded_ordering(3), 1, 0), "L",
                 id="language-L0"),
    pytest.param(stabilized_complexity, (seeded_ordering(3), 3, 0),
                 "max_level", id="stabilized-level0"),
])
def test_argument_outside_domain_is_a_value_error(fn, args, name):
    # at these edges a level counted from the end, a search that never
    # ran, columns compared below level L, a return time off the interior
    # or a diagram of no levels passed for an answer
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        fn(*args)


def test_faithfulness_probe_small():
    for xi in seeds(3):
        report = faithfulness_probe(xi, 4, 3, 4)
        assert report.total == len(list(itertools.product((0, 1), repeat=4))) * 15 / 2
        assert report.all_separated
        for pair in report.pairs:
            if pair.path_a[0] != pair.path_b[0]:
                assert pair.coordinate == 0


def test_faithfulness_k1_reports_without_assertion():
    report = faithfulness_probe(seeded_ordering(0), 4, 1, 4)
    assert report.total == 120
    assert 0 <= report.separated <= report.total


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xi=orderings(), L=st.integers(1, 4), k=st.integers(1, 3),
       delta=st.integers(0, 4))
def test_faithfulness_probe_matches_reference(xi, L, k, delta):
    k = min(k, L)
    assert faithfulness_probe(xi, L, k, delta) == \
        faithfulness_reference(xi, L, k, delta)
