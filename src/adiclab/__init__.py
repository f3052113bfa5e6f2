"""adiclab: executable combinatorics of ordered Pascal adic systems.

Library layout:

- core: graph geometry, orderings, paths, rank/unrank, measures
- adic: Vershik successor dynamics and return-time machinery
- coding: basic blocks, censuses, language counts, faithfulness probe
- factoring: block parsers, exclusion searches
- bratteli: general ordered diagrams, telescoping, odometer certificates
- cli: the batch command-line front end
"""

from .core import (BOTH_EXTREMAL, MAX, MIN, OrderingTable, PathPrefix, Vertex,
                   binomial, column_size, constant_ordering,
                   count_extremal_prefixes, cylinder_measure, doubling_level,
                   explicit_ordering, extreme_path, make_ordering,
                   minimal_continuation, ordering_from_json, rank,
                   rule_ordering, seeded_ordering, tree_embedding_ordering,
                   unrank)
from .adic import (KINK_CASES, KinkCase, binom_mod, kink_classify,
                   kink_return_time, kink_verify, orbit_coding, predecessor,
                   successor, weakmixing_row_check, weakmixing_vertex_search)
from .coding import (CylSymbol, basic_block, basic_block_k,
                     big_language_count, enumerate_blocks, faithfulness_probe,
                     language_words, stabilized_complexity, symbol_census)
from .factoring import (AltState, CDToken, alternation_exclusion, alt_state,
                        combine_alt, decode_ordering, decompose_CD,
                        factor_block, intersection_probe,
                        periodic_exclusion, run_context_report,
                        small_subshift_orderings, unique_factorization_check)
from .bratteli import (MonteCarloReport, OrderedDiagram, OrderedShape, Shape,
                       exact_uniform_probability, is_uniformly_ordered,
                       monte_carlo_uniform, odometer_certificate,
                       pascal_as_diagram, random_ordering, shape_process,
                       telescope, vertex_coding)

__version__ = "0.1.0"
