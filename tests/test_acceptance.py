"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.
"""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np

from adiclab.adic import kink_trials, weakmixing_row_check
from adiclab.bratteli import (OrderedDiagram, Shape, exact_uniform_probability,
                              is_uniformly_ordered, monte_carlo_uniform,
                              telescope)
from adiclab.coding import (basic_block, faithfulness_probe,
                            iter_restricted_blocks, stabilized_complexity,
                            symbol_census)
from adiclab.core import Vertex, binomial, constant_ordering, seeded_ordering
from adiclab.factoring import (alternation_exclusion, decode_ordering,
                               decompose_CD, intersection_probe,
                               periodic_exclusion, run_context_report,
                               small_subshift_orderings,
                               unique_factorization_check)

from conftest import WORKED_BITS, WORKED_BLOCK, WORKED_TOKENS, successor_sweep


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_worked_decoding_example():
    xi, xi_prime = small_subshift_orderings()
    from adiclab.core import explicit_ordering

    worked = explicit_ordering(WORKED_BITS, max_level=7)
    assert basic_block(worked, 4, 3) == WORKED_BLOCK
    assert [str(t) for t in decompose_CD(WORKED_BLOCK)] == WORKED_TOKENS
    vertex, table = decode_ordering(WORKED_BLOCK)
    assert vertex == Vertex(4, 3)
    recovered = {(x, y): table.bit(x, y)
                 for x in range(2, 5) for y in range(2, 4)}
    assert recovered == WORKED_BITS
    report(1, "B(4,3) string, token stream, and all six bits recovered")


def test_criterion_02_counting_identities():
    for seed in range(20):
        xi = seeded_ordering(seed)
        for n in range(1, 21):
            for x in range(1, n):
                word = basic_block(xi, x, n - x)
                assert len(word) == binomial(n, x)
                ca, cb, v = symbol_census(word)
                assert ca == binomial(n - 1, x - 1)
                assert cb == binomial(n - 1, n - x - 1)
                assert v == Vertex(x, n - x)
    report(2, "lengths and letter counts exact to level 20, 20 orderings")


def test_criterion_03_distinct_block_counts():
    for x in range(2, 5):
        for y in range(2, 5):
            seen = set()
            for bits, word in iter_restricted_blocks(x, y):
                seen.add(word)
                vertex, table = decode_ordering(word)
                assert vertex == Vertex(x, y)
                assert all(table.bit(u, v) == b for (u, v), b in bits.items())
            assert len(seen) == 2 ** ((x - 1) * (y - 1))
    report(3, "2^((x-1)(y-1)) distinct blocks and decode/encode identity")


def test_criterion_04_kink_return_times():
    cases, failures = kink_trials(20260809, 0, 1000, 12)
    assert failures == 0
    assert len(cases) == 8
    assert min(cases.values()) >= 50
    report(4, f"1000 return times verified; per-case counts {sorted(cases.values())}")


def test_criterion_05_alternation_exclusion():
    xi, xi_prime = small_subshift_orderings()
    assert basic_block(xi, 3, 3) == "a" + "ab" * 9 + "b"
    assert basic_block(xi_prime, 3, 3) == "b" + "ba" * 9 + "a"
    verdict = alternation_exclusion(12, 9)
    assert verdict.exact_excluded and verdict.exact_level == 7
    assert verdict.dp_excluded and verdict.dp_level == 12
    assert verdict.excluded
    report(5, "a(ab)^9b / b(ba)^9a realized; EXCLUDED in both phases")


def test_criterion_06_odometer_machinery():
    nonuniform_pair = OrderedDiagram((
        ((0,), (0,), (0,)),
        ((0, 1), (1, 2), (1, 2)),
        ((0, 1), (0, 2)),
    ))
    assert is_uniformly_ordered(nonuniform_pair, 2) is None
    assert is_uniformly_ordered(nonuniform_pair, 3) is None
    t8 = telescope(nonuniform_pair, [0, 1, 3])
    assert t8.codings[1] == ((0, 1, 1, 2), (0, 1, 1, 2))
    assert is_uniformly_ordered(t8, 2) == (0, 1, 1, 2)

    uniform_level = OrderedDiagram((
        ((0,), (0,), (0,)),
        ((1, 0, 2), (1, 0, 2, 1, 0, 2)),
    ))
    assert uniform_level.coding(2, 1) == (1, 0, 2, 1, 0, 2)
    assert is_uniformly_ordered(uniform_level, 2) == (1, 0, 2)

    stacked_uniform = OrderedDiagram((
        ((0,), (0,)),
        ((0,), (0, 1), (1,)),
        ((1, 0, 2), (1, 0, 2, 1, 0, 2)),
    ))
    t7 = telescope(stacked_uniform, [0, 1, 3])
    assert t7.codings[1] == ((0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 0, 1))
    report(6, "diagram examples reproduce v2v1v3, abab/(abab)^2, and "
              "v1v2v2v3 codings")


def test_criterion_07_monte_carlo():
    shapes = [Shape.constant(2, 2, 1), Shape.constant(2, 3, 1)]
    exact = [exact_uniform_probability(s) for s in shapes]
    assert exact == [Fraction(1, 2), Fraction(1, 4)]  # exhaustive: 4 and 8 orders
    rep = monte_carlo_uniform(shapes, 100000, seed=2026)
    for lvl, p in zip(rep.levels, exact):
        sigma = math.sqrt(float(p) * (1 - float(p)) / lvl.trials)
        assert abs(lvl.frequency - float(p)) <= 3 * sigma
    report(7, "frequencies within 3 sigma of 1/2 and 1/4 at 1e5 trials")


def test_criterion_08_weakmixing_ingredients():
    import random

    from adiclab.adic import binom_mod

    for q in (2, 3, 5, 7):
        for s in range(1, 6):
            assert weakmixing_row_check(q, s)
    rng = random.Random(8)
    for _ in range(10000):
        q = rng.choice((2, 3, 5, 7, 11))
        n = rng.randrange(0, 600)
        k = rng.randrange(0, 650)
        assert binom_mod(n, k, q) == (math.comb(n, k) % q if k <= n else 0)
    report(8, "row identities for q in {2,3,5,7}, s <= 5; Lucas vs big-int on 1e4 triples")


def test_criterion_09_faithfulness_probe():
    for seed in range(20):
        rep = faithfulness_probe(seeded_ordering(seed), 6, 3, 6)
        assert rep.total == 2016
        assert rep.all_separated, (seed, rep.unseparated[:3])
    report(9, "3-coding separates all 2016 pairs for 20 orderings")


def test_criterion_10_unique_factorization():
    for seed in range(100):
        xi = seeded_ordering(seed)
        for n in range(3, 9):
            assert unique_factorization_check(xi, 3, n)
    from adiclab.core import explicit_ordering

    free = [(u, v) for u in range(2, 5) for v in range(2, 5)]
    for choice in itertools.product((0, 1), repeat=9):
        xi = explicit_ordering(dict(zip(free, choice)), max_level=8)
        for n in range(2, 9):
            assert unique_factorization_check(xi, 1, n)
    report(10, "k=3 over 100 orderings and k=1 over all 512 restricted orderings")


def test_criterion_11_complexity_oracle():
    xi0 = constant_ordering(0)
    window_sets = {n: set() for n in range(1, 13)}
    for x in range(25):
        sweep = successor_sweep(xi0, x, 24 - x, 1)
        s = np.frombuffer(sweep, dtype=np.uint8)
        size = len(s)
        for n in range(1, 13):
            if size >= n:
                vals = np.zeros(size - n + 1, dtype=np.uint16)
                for t in range(n):
                    vals |= s[t:size - n + 1 + t].astype(np.uint16) << t
                window_sets[n].update(np.unique(vals).tolist())
    for n in range(1, 13):
        count, lvl, stab = stabilized_complexity(xi0, n, 40)
        assert stab and count == len(window_sets[n]), n
    out_of_band = []
    for n in range(20, 41):
        count, lvl, stab = stabilized_complexity(xi0, n, 60)
        assert stab
        ratio = count / (n**3 / 6)
        if not 0.7 <= ratio <= 1.3:
            out_of_band.append((n, ratio))
    if out_of_band:  # soft desk-scale check: warn, do not fail
        warnings.warn(f"complexity ratio outside [0.7, 1.3]: {out_of_band}")
    report(11, "stabilized counts equal the successor-iteration oracle; "
               "n^3/6 ratios in band" if not out_of_band else
               "stabilized counts equal the oracle; ratio band warned")


def test_criterion_12_small_subshift():
    xi, xi_prime = small_subshift_orderings()
    common = intersection_probe(xi, xi_prime, 60, 20)
    orbit = re.compile(r"a*|b*|a*ba*|b*ab*")
    assert all(orbit.fullmatch(w) for w in common)

    for l in range(7, 11):
        rep = run_context_report(xi, l, 16)
        long = "b" + "a" * l + "b" + "a" * l + "b" + "a" * (l - 1) + "b"
        short = "b" + "a" * l + "b" + "a" * (l - 1) + "b"
        assert set(rep.contexts) == {long, short}
        rep_p = run_context_report(xi_prime, l, 16)
        a = "a" * l
        forms = re.compile(f"b{a}b|b{a}b{a}b{{2,}}a")
        assert rep_p.contexts and all(forms.fullmatch(w) for w in rep_p.contexts)

    scopes = set()
    for p in (2, 3, 4):
        for seed in range(10):
            repp = periodic_exclusion(seeded_ordering(seed), p, 18)
            assert repp.all_excluded
            if p == 4:
                scopes.add(repp.scope)
    # at level 18 every period-4 window outgrows the blocks (vacuous); at
    # level 22 the longest block, C(22, 11) letters, holds it, so each
    # exclusion rests on an absent window
    for seed in range(10):
        repp = periodic_exclusion(seeded_ordering(seed), 4, 22)
        assert repp.all_excluded
        assert not any(c.vacuous for c in repp.cases)
        scopes.add(repp.scope)
    assert scopes == {"blocks up to level 18; 14 of 14 cases vacuous",
                      "blocks up to level 22; 0 of 14 cases vacuous"}
    report(12, "intersection only orbit subwords; contexts match the proof; "
               "periods 2-4 excluded for 10 orderings, period 4 at level "
               "22 with no case vacuous; period 4 scopes: "
               + ", ".join(sorted(scopes)))
