"""The least valid value of every integer argument of the public API.

Each row of `DOMAIN` is one integer argument of a function exported by
`adiclab`: the function and argument name, the least valid value, a call
that passes a value in that argument's place (every other argument
valid), and what a value below the least one gives.  That is either the
text by which a `ValueError` names the argument, or a documented answer: a
function of the value that gives what the call returns.
"""

import re

import pytest

import adiclab as al
from adiclab.core import PathPrefix, Vertex

_XI = al.seeded_ordering(3)
_DIAGRAM = al.OrderedDiagram((((0,), (0,)), ((0, 1), (0, 1)),
                              ((0, 1, 1), (0, 1, 1, 0))))
_SHAPES = [al.Shape(((1, 1), (1, 1))), al.Shape(((1, 1, 1), (1, 1, 1)))]
_PATH = PathPrefix.from_word("abab")


def _hits(seed):
    return [lvl.uniform_hits
            for lvl in al.monte_carlo_uniform(_SHAPES, 40, seed).levels]


# (function, argument, least valid value, call, refusal or answer); a
# string is the text by which the ValueError names the argument, and a
# callable the documented answer
DOMAIN = [
    ("binomial", "n", 0, lambda v: al.binomial(v, 0), "n"),
    ("binomial", "k", 0, lambda v: al.binomial(3, v), "k"),
    ("constant_ordering", "bit", 0, al.constant_ordering, "bit"),
    ("seeded_ordering", "seed", 0, al.seeded_ordering, "seed"),
    ("explicit_ordering", "max_level", 0,
     lambda v: al.explicit_ordering({}, v), "maxLevel"),
    ("explicit_ordering", "default", 0,
     lambda v: al.explicit_ordering({}, 4, v), "default"),
    ("tree_embedding_ordering", "depth", 1, al.tree_embedding_ordering,
     "depth"),
    # the least level is the path's own length
    ("minimal_continuation", "level", 4,
     lambda v: al.minimal_continuation(_XI, _PATH, v), "level"),
    ("unrank", "r", 0, lambda v: al.unrank(_XI, Vertex(2, 2), v), "rank"),
    # k = 0 codes every path by the one level-0 cylinder
    ("orbit_coding", "k", 0,
     lambda v: al.orbit_coding(_XI, al.unrank(_XI, Vertex(3, 3), 5), v,
                               (0, 2)), "k"),
    ("kink_return_time", "n", 2,
     lambda v: al.kink_return_time(al.KINK_CASES[0], v, 1), "n"),
    ("kink_return_time", "j", 1,
     lambda v: al.kink_return_time(al.KINK_CASES[0], 4, v), "j"),
    ("binom_mod", "n", 0, lambda v: al.binom_mod(v, 0, 3), "n"),
    # C(n, k) is 0 for k < 0, as for k > n: binom_mod(2, 5, 3) == 0
    ("binom_mod", "k", 0, lambda v: al.binom_mod(4, v, 3), lambda v: 0),
    ("binom_mod", "q", 2, lambda v: al.binom_mod(4, 2, v), "q"),
    ("weakmixing_row_check", "q", 2, lambda v: al.weakmixing_row_check(v, 1),
     "q"),
    ("weakmixing_row_check", "s", 1, lambda v: al.weakmixing_row_check(3, v),
     "s"),
    # a boundary vertex has a one-letter block; the message names the vertex
    ("basic_block", "x", 0, lambda v: al.basic_block(_XI, v, 2), "(-1, 2)"),
    ("basic_block", "y", 0, lambda v: al.basic_block(_XI, 2, v), "(2, -1)"),
    ("basic_block_k", "k", 1, lambda v: al.basic_block_k(_XI, v, 2, 2), "k"),
    ("basic_block_k", "x", 0, lambda v: al.basic_block_k(_XI, 1, v, 2),
     "(-1, 2)"),
    ("basic_block_k", "y", 0, lambda v: al.basic_block_k(_XI, 1, 2, v),
     "(2, -1)"),
    ("enumerate_blocks", "x", 1, lambda v: al.enumerate_blocks(v, 2), "x"),
    ("enumerate_blocks", "y", 1, lambda v: al.enumerate_blocks(2, v), "y"),
    ("faithfulness_probe", "L", 1,
     lambda v: al.faithfulness_probe(_XI, v, 1, 1), "L"),
    ("faithfulness_probe", "k", 1,
     lambda v: al.faithfulness_probe(_XI, 3, v, 1), "k"),
    ("faithfulness_probe", "delta", 0,
     lambda v: al.faithfulness_probe(_XI, 3, 1, v), "delta"),
    ("language_words", "n", 1, lambda v: al.language_words(_XI, v, 4), "n"),
    ("language_words", "L", 1, lambda v: al.language_words(_XI, 2, v), "L"),
    ("stabilized_complexity", "n", 1,
     lambda v: al.stabilized_complexity(_XI, v, 4), "n"),
    ("stabilized_complexity", "max_level", 1,
     lambda v: al.stabilized_complexity(_XI, 2, v), "max_level"),
    ("alternation_exclusion", "L", 1,
     lambda v: al.alternation_exclusion(v, 2), "L"),
    ("alternation_exclusion", "j", 1,
     lambda v: al.alternation_exclusion(4, v), "j"),
    # a 0-byte cap is valid, and only a search that stores no pairs fits
    ("alternation_exclusion", "max_bytes", 0,
     lambda v: al.alternation_exclusion(2, 2, max_bytes=v), "max_bytes"),
    ("intersection_probe", "n", 1,
     lambda v: al.intersection_probe(_XI, _XI, v, 4), "n"),
    ("intersection_probe", "L", 1,
     lambda v: al.intersection_probe(_XI, _XI, 2, v), "L"),
    ("periodic_exclusion", "p", 2,
     lambda v: al.periodic_exclusion(_XI, v, 4), "period"),
    ("periodic_exclusion", "L", 1,
     lambda v: al.periodic_exclusion(_XI, 2, v), "L"),
    ("run_context_report", "l", 7,
     lambda v: al.run_context_report(_XI, v, 4), "l"),
    ("run_context_report", "L", 1,
     lambda v: al.run_context_report(_XI, 7, v), "L"),
    ("unique_factorization_check", "k", 1,
     lambda v: al.unique_factorization_check(_XI, v, 3), "k"),
    # the least n is k
    ("unique_factorization_check", "n", 2,
     lambda v: al.unique_factorization_check(_XI, 2, v), "n"),
    ("is_uniformly_ordered", "n", 1,
     lambda v: al.is_uniformly_ordered(_DIAGRAM, v), "n"),
    ("monte_carlo_uniform", "trials", 1,
     lambda v: al.monte_carlo_uniform(_SHAPES, v, 1), "trials"),
    ("monte_carlo_uniform", "seed", 0, _hits, "seed"),
    ("odometer_certificate", "search_depth", 1,
     lambda v: al.odometer_certificate(_DIAGRAM, v), "search_depth"),
    ("pascal_as_diagram", "L", 1, lambda v: al.pascal_as_diagram(_XI, v),
     "L"),
]


def _below(rows):
    for fn, arg, least, call, expect in rows:
        for value in sorted({least - 1, -1}, reverse=True):
            yield pytest.param(call, value, expect,
                               id=f"{fn}-{arg}-{value}")


@pytest.mark.parametrize("least, call", [row[2:4] for row in DOMAIN],
                         ids=[f"{row[0]}-{row[1]}" for row in DOMAIN])
def test_least_valid_value_is_accepted(least, call):
    call(least)


@pytest.mark.parametrize("call, value, expect", _below(DOMAIN))
def test_value_below_the_least_is_refused_or_documented(call, value, expect):
    if callable(expect):
        assert call(value) == expect(value)
    else:
        with pytest.raises(ValueError,
                           match=rf"(?<!\w){re.escape(expect)}(?!\w)"):
            call(value)


def test_every_exported_function_with_an_integer_argument_has_a_row():
    # the functions of `adiclab`'s namespace that take an integer, listed
    # by hand: a new one gets a row, or joins the list of those without
    integer = {row[0] for row in DOMAIN}
    without = {"column_size", "extreme_path", "make_ordering", "rank",
               "rule_ordering", "kink_classify", "kink_verify", "predecessor",
               "successor", "symbol_census", "decode_ordering",
               "decompose_CD", "small_subshift_orderings", "telescope",
               "exact_uniform_probability", "alt_state", "combine_alt"}
    functions = {name for name in dir(al) if not name.startswith("_")
                 and callable(getattr(al, name))
                 and not isinstance(getattr(al, name), type)}
    assert integer | without == functions
