import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiclab.bratteli import (OrderedDiagram, Shape, exact_uniform_probability,
                              is_uniformly_ordered, monte_carlo_uniform,
                              odometer_certificate, pascal_as_diagram,
                              shapes_from_json, telescope, uniform_base,
                              uniform_hits)
from adiclab.coding import basic_block
from adiclab.core import MIN, Vertex, extreme_path, seeded_ordering
from adiclab.errors import InputError

from conftest import (draw_index, exact_uniform_probability_reference,
                      in_degree, keyed_order_reference,
                      uniform_hits_reference)


def uniform_level_diagram():
    return OrderedDiagram((
        ((0,), (0,), (0,)),
        ((1, 0, 2), (1, 0, 2, 1, 0, 2)),
    ))


def stacked_uniform_diagram():
    return OrderedDiagram((
        ((0,), (0,)),
        ((0,), (0, 1), (1,)),
        ((1, 0, 2), (1, 0, 2, 1, 0, 2)),
    ))


def nonuniform_pair_diagram():
    return OrderedDiagram((
        ((0,), (0,), (0,)),
        ((0, 1), (1, 2), (1, 2)),
        ((0, 1), (0, 2)),
    ))


def test_vertex_coding_and_uniform_level():
    d = uniform_level_diagram()
    assert d.coding(2, 1) == (1, 0, 2, 1, 0, 2)
    assert d.coding(1, 0) == (0,)
    assert is_uniformly_ordered(d, 2) == (1, 0, 2)


def test_single_target_level_always_uniform():
    d = OrderedDiagram((((0,), (0,)), ((0, 1, 1, 0),)))
    assert is_uniformly_ordered(d, 2) == (0, 1, 1, 0)


def test_nonuniform_pair_uniform_only_after_telescoping():
    d = nonuniform_pair_diagram()
    assert is_uniformly_ordered(d, 2) is None
    assert is_uniformly_ordered(d, 3) is None
    t = telescope(d, [0, 1, 3])
    assert t.codings[1] == ((0, 1, 1, 2), (0, 1, 1, 2))
    assert is_uniformly_ordered(t, 2) == (0, 1, 1, 2)


def test_stacked_uniform_telescoped_to_ends():
    t = telescope(stacked_uniform_diagram(), [0, 1, 3])
    assert t.codings[1] == ((0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 0, 1))
    assert is_uniformly_ordered(t, 2) == (0, 1)


def test_telescope_identity_and_functoriality():
    d = stacked_uniform_diagram()
    assert telescope(d, [0, 1, 2, 3]).codings == d.codings
    once = telescope(d, [0, 2, 3])
    twice = telescope(telescope(d, [0, 2, 3]), [0, 1, 2])
    assert telescope(d, [0, 2, 3]).codings == once.codings
    assert twice.codings == telescope(d, [0, 2, 3]).codings
    assert telescope(d, [0, 3]).codings == \
        telescope(telescope(d, [0, 2, 3]), [0, 2]).codings
    for cuts in ([0, 2], []):
        with pytest.raises(ValueError,
                           match="cuts must increase from 0 to the last level"):
            telescope(d, cuts)


def random_diagram(rng, depth=4, width=3):
    levels = []
    prev = 1
    for _ in range(depth):
        size = rng.randint(1, width)
        words = []
        unused = set(range(prev))
        for w in range(size):
            word = tuple(rng.randrange(prev)
                         for _ in range(rng.randint(1, 3)))
            words.append(word)
            unused -= set(word)
        for v in unused:  # patch surjectivity
            w = rng.randrange(size)
            words[w] = words[w] + (v,)
        levels.append(tuple(words))
        prev = size
    return OrderedDiagram(tuple(levels))


def test_telescope_functorial_on_random_diagrams():
    rng = random.Random(5)
    for _ in range(50):
        d = random_diagram(rng, depth=5)
        cuts = sorted({0, d.depth} | {rng.randint(1, d.depth - 1)
                                      for _ in range(2)})
        mid = telescope(d, cuts)
        assert telescope(d, [0, d.depth]).codings == \
            telescope(mid, [0, mid.depth]).codings


@st.composite
def _diagrams(draw):
    """2-3 vertices a level, 3-6 levels, words of 1-3 sources."""
    levels, prev = [], 1
    for _ in range(draw(st.integers(3, 6))):
        size = draw(st.integers(2, 3))
        words = [draw(st.lists(st.integers(0, prev - 1), min_size=1,
                               max_size=3)) for _ in range(size)]
        for v in set(range(prev)).difference(*words):  # surjectivity
            words[v % size].append(v)
        levels.append(tuple(map(tuple, words)))
        prev = size
    return OrderedDiagram(tuple(levels))


def _cuts(draw, top):
    """0, a random subset of 1..top-1, and top."""
    keep = draw(st.lists(st.booleans(), min_size=top - 1, max_size=top - 1))
    return [0] + [c for c, k in enumerate(keep, start=1) if k] + [top]


@settings(max_examples=200, deadline=None)
@given(_diagrams(), st.data())
def test_telescope_of_telescope_is_composed_telescope(d, data):
    c1 = _cuts(data.draw, d.depth)
    c2 = _cuts(data.draw, len(c1) - 1)
    assert telescope(telescope(d, c1), c2).codings == \
        telescope(d, [c1[i] for i in c2]).codings


def test_uniform_levels_compose():
    # two uniformly ordered levels with matching base words telescope to a
    # uniformly ordered level
    d = OrderedDiagram((
        ((0,), (0,)),
        ((0, 1), (0, 1, 0, 1)),
        ((0, 1), (0, 1, 0, 1, 0, 1)),
    ))
    assert is_uniformly_ordered(d, 2) == (0, 1)
    assert is_uniformly_ordered(d, 3) == (0, 1)
    t = telescope(d, [0, 1, 3])
    assert is_uniformly_ordered(t, 2) is not None


def test_uniform_levels_compose_random():
    rng = random.Random(11)
    for _ in range(60):
        n_src = rng.randint(1, 3)
        base1 = tuple(rng.randrange(n_src) for _ in range(rng.randint(1, 3)))
        base1 = base1 + tuple(v for v in range(n_src) if v not in base1)
        n_mid = rng.randint(1, 3)
        mid = tuple(base1 * rng.randint(1, 2) for _ in range(n_mid))
        base2 = tuple(rng.randrange(n_mid) for _ in range(rng.randint(1, 3)))
        base2 = base2 + tuple(v for v in range(n_mid) if v not in base2)
        bottom = tuple(base2 * rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        d = OrderedDiagram((tuple((0,) for _ in range(n_src)), mid, bottom))
        assert is_uniformly_ordered(d, 2) is not None
        assert is_uniformly_ordered(d, 3) is not None
        t = telescope(d, [0, 1, 3])
        assert is_uniformly_ordered(t, 2) is not None


def test_odometer_certificate_paths():
    all_uniform = OrderedDiagram((
        ((0,),),
        ((0, 0),),
        ((0, 0, 0),),
    ))
    cert = odometer_certificate(all_uniform, 2)
    assert cert.found and len(cert.segments) == 3

    cert_pair = odometer_certificate(nonuniform_pair_diagram(), 3)
    assert cert_pair.found
    assert (1, 3, (0, 1, 1, 2)) in cert_pair.segments

    swap = OrderedDiagram((
        ((0,), (0,)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 0)),
    ))
    cert_swap = odometer_certificate(swap, 3)
    assert not cert_swap.found
    assert cert_swap.message == "NO-CERTIFICATE-FOUND"


def test_diagram_json_roundtrip():
    d = nonuniform_pair_diagram()
    again = OrderedDiagram.from_json(d.to_json())
    assert again.codings == d.codings


def test_diagram_validation():
    with pytest.raises(ValueError):
        OrderedDiagram((((0,), ()),))  # empty coding word
    with pytest.raises(ValueError):
        OrderedDiagram((((0,), (0,)), ((0,),)))  # source 1 unused
    with pytest.raises(ValueError, match="^no levels$"):
        OrderedDiagram(())


def test_empty_documents_are_input_errors():
    # a diagram with no levels, or a shapes file with no shapes, has
    # nothing to certify or sample
    with pytest.raises(InputError, match="^bad coding field: no levels$"):
        OrderedDiagram.from_json('{"coding": []}')
    with pytest.raises(InputError, match="^bad shapes field: no shapes$"):
        shapes_from_json('{"shapes": []}')


def test_diagram_and_shape_are_values():
    # both hash by value, and a Monte Carlo run with several workers
    # pickles its shapes
    shape = Shape(((1, 2), (3, 0)))
    diagram = OrderedDiagram((((0,), (0,)), ((0, 1), (1,))))
    for value, text in [
            (shape, "Shape(multiplicity=((1, 2), (3, 0)))"),
            (diagram,
             "OrderedDiagram(codings=(((0,), (0,)), ((0, 1), (1,))))")]:
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
        assert len({value, again}) == 1 and repr(again) == text
    assert shape != Shape(((1, 2), (3, 1))) and shape != diagram
    assert shape != ((1, 2), (3, 0))
    # built from lists, each stores tuples: the same value, hashable
    listed = Shape([[1, 2], [3, 0]]), OrderedDiagram([[[0], [0]],
                                                      [[0, 1], [1]]])
    assert listed == (shape, diagram)
    assert hash(listed) == hash((shape, diagram))


def test_shape_and_random_ordering():
    shape = Shape.constant(2, 3, 1)
    assert in_degree(shape, 0) == 2
    assert shape.in_edges(1) == [0, 1]
    with pytest.raises(ValueError):
        Shape(((0, 0), (1, 1)))


def test_exact_uniform_probability():
    assert exact_uniform_probability(Shape.constant(2, 2, 1)) == Fraction(1, 2)
    assert exact_uniform_probability(Shape.constant(2, 3, 1)) == Fraction(1, 4)
    # r! / (r!)^v on the constant shapes matches exhaustive enumeration
    for r in (2, 3):
        for v in (2, 3):
            shape = Shape.constant(r, v, 1)
            exhaustive = exact_uniform_probability_reference(shape)
            closed = Fraction(math.factorial(r), math.factorial(r) ** v)
            assert exhaustive == closed == exact_uniform_probability(shape)
    # multi-edge single-source shape: every ordering is uniform
    assert exact_uniform_probability(Shape(((2, 2),))) == 1
    # shapes past the 10^6 edge orders an enumeration could afford
    assert exact_uniform_probability(Shape(((3, 3, 3), (3, 3, 3)))) == \
        Fraction(1, 400)
    assert exact_uniform_probability(
        Shape(((4, 8, 12), (6, 12, 18), (2, 4, 6)))) == \
        Fraction(1, 225507821372610200424000)
    # no common word: target 1 has no edge from source 1
    assert exact_uniform_probability(Shape(((1, 1), (1, 0)))) == 0


@st.composite
def _enumerable_shapes(draw):
    """A shape of 1-3 sources and targets, multiplicities 0-3, whose
    prod_t deg_t! edge orders number at most 10^4.

    Half the shapes have proportional columns, so that several targets
    are often uniform together; the others often have zero entries.
    """
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = draw(st.lists(st.integers(1, 3), min_size=s, max_size=s))
        scale = draw(st.lists(st.integers(1, 3 // max(base)),
                              min_size=t, max_size=t))
        rows = [[m * k for k in scale] for m in base]
    else:
        rows = [draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))
                for _ in range(s)]
    for row in rows:  # every source and target needs an edge
        if not any(row):
            row[0] = 1
    for c in range(t):
        if not any(row[c] for row in rows):
            rows[0][c] = 1
    while math.prod(math.factorial(sum(c)) for c in zip(*rows)) > 10**4:
        # the largest column has an entry above 1 (its degree is over 3)
        c = max(range(t), key=lambda c: sum(row[c] for row in rows))
        r = max(range(s), key=lambda r: rows[r][c])
        rows[r][c] -= 1
    return Shape(tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(_enumerable_shapes())
def test_exact_uniform_probability_matches_enumeration(shape):
    assert exact_uniform_probability(shape) == \
        exact_uniform_probability_reference(shape)


def test_monte_carlo_exact_and_determinism():
    shapes = [Shape.constant(2, 2, 1), Shape.constant(2, 3, 1)]
    rep1 = monte_carlo_uniform(shapes, 2000, seed=7)
    rep2 = monte_carlo_uniform(shapes, 2000, seed=7)
    assert [l.uniform_hits for l in rep1.levels] == \
        [l.uniform_hits for l in rep2.levels]
    assert rep1.partial_sums == [Fraction(1, 2), Fraction(3, 4)]
    for lvl, p in zip(rep1.levels, (0.5, 0.25)):
        sigma = math.sqrt(p * (1 - p) / lvl.trials)
        assert abs(lvl.frequency - p) <= 4 * sigma


def test_partial_sums_cover_every_level():
    # ((3,3,3),(3,3,3)) has 9!^3 edge orders; ((1,1),(1,0)) has P = 0
    shapes = [Shape.constant(2, 2, 1), Shape(((3, 3, 3), (3, 3, 3))),
              Shape(((1, 1), (1, 0)))]
    rep = monte_carlo_uniform(shapes, 10, seed=3)
    assert [lvl.exact for lvl in rep.levels] == \
        [Fraction(1, 2), Fraction(1, 400), 0]
    assert rep.partial_sums == [Fraction(1, 2), Fraction(201, 400),
                                Fraction(201, 400)]


def test_monte_carlo_single_target():
    rep = monte_carlo_uniform([Shape(((1,), (1,)))], 50, seed=1)
    assert rep.levels[0].frequency == 1.0


@st.composite
def _shape_lists(draw):
    """1-3 shapes of 1-3 sources and targets, multiplicities 0-2.

    Half the shapes give every target a multiple of one column, so that
    levels of several targets are often uniform, and often not.
    """
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            base = draw(st.lists(st.integers(1, 2), min_size=s, max_size=s))
            scale = (draw(st.lists(st.integers(1, 2), min_size=t, max_size=t))
                     if max(base) == 1 else [1] * t)
            rows = [[m * k for k in scale] for m in base]
        else:
            rows = [draw(st.lists(st.integers(0, 2), min_size=t, max_size=t))
                    for _ in range(s)]
        for row in rows:  # every source and target needs an edge
            if not any(row):
                row[0] = 1
        for c in range(t):
            if not any(row[c] for row in rows):
                rows[0][c] = 1
        shapes.append(Shape(tuple(map(tuple, rows))))
    return shapes


@settings(max_examples=60, deadline=None)
@given(_shape_lists(), st.integers(0, 2**64 - 1), st.data())
def test_uniform_hits_match_reference(shapes, seed, data):
    hi = data.draw(st.integers(1, 200))
    lo = data.draw(st.integers(0, hi - 1))
    mid = data.draw(st.integers(lo, hi))
    hits = uniform_hits(shapes, seed, lo, hi)
    assert hits == uniform_hits_reference(shapes, seed, lo, hi)
    # chunking a trial range keeps the counts
    assert [p + q for p, q in zip(uniform_hits(shapes, seed, lo, mid),
                                  uniform_hits(shapes, seed, mid, hi))] == hits
    # the seed is a u64, not read modulo 2^64
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            uniform_hits(shapes, bad, lo, hi)


def test_index_draw_accepts_each_value_below_m_once():
    # every k-bit pattern, low bit first, then a pattern of k zero bits
    for m in range(2, 10):
        k = m.bit_length()
        accepted = []
        for pattern in range(2 ** k):
            bits = iter([(pattern >> b) & 1 for b in range(k)] + [0] * k)
            value = draw_index(bits, m)
            if pattern < m:
                assert value == pattern
                assert next(bits) == 0  # only k bits were read
                accepted.append(value)
            else:
                assert value == 0
                assert next(bits, None) is None  # rejected, drawn again
        assert sorted(accepted) == list(range(m))


def test_degree_3_orders_pass_chi_square():
    # 60,000 keys, 10,000 expected per order; 20.52 is the 0.1% tail of
    # chi-square with 5 degrees of freedom
    counts = {}
    for trial in range(60000):
        order = keyed_order_reference(2026, trial, 0, 0, (0, 1, 2))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    chi2 = sum((c - 10000) ** 2 / 10000 for c in counts.values())
    assert chi2 < 20.52


def test_uniform_hits_match_reference_past_one_digest():
    # each target has 100 in-edges, and its 99 draws read at least 573
    # bits, so every order reads a refilled digest; a trial hits when both
    # targets put their one source-1 edge at the same place
    shapes = [Shape(((99, 99), (1, 1)))]
    hits = [uniform_hits(shapes, 5, t, t + 1)[0] for t in range(1000)]
    assert hits == [uniform_hits_reference(shapes, 5, t, t + 1)[0]
                    for t in range(1000)]
    assert sum(hits) > 0


def test_pascal_as_diagram_matches_core():
    xi = seeded_ordering(13)
    d = pascal_as_diagram(xi, 8)
    for n in range(1, 9):
        for y in range(n + 1):
            x = n - y
            word = d.coding(n, y)
            if x == 0 or y == 0:
                assert len(word) == 1
            elif xi.bit(x, y) == 0:
                assert word == (y - 1, y)
            else:
                assert word == (y, y - 1)
    # minimal path through the diagram agrees with core's extreme path
    for y in range(9):
        v = Vertex(8 - y, y)
        path = extreme_path(xi, v, MIN)
        ids = [path.vertex_at(lvl).y for lvl in range(1, 9)]
        cur = y
        for n in range(8, 0, -1):
            word = d.coding(n, cur)
            assert ids[n - 1] == cur
            cur = word[0]


@settings(deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(2, 10))
def test_telescoped_pascal_diagram_spells_basic_blocks(seed, L):
    # word substitution in telescope against the block store's memo
    xi = seeded_ordering(seed)
    top = telescope(pascal_as_diagram(xi, L), [0, 1, L]).codings[1]
    for y in range(L + 1):
        assert "".join("ab"[s] for s in top[y]) == basic_block(xi, L - y, y)


def test_uniform_base_helper():
    assert uniform_base([(0, 1, 0, 1), (0, 1)]) == (0, 1)
    assert uniform_base([(0, 1), (1, 0)]) is None
