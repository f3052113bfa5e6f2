"""adiclab: executable combinatorics of ordered Pascal adic systems.

Library layout:

- core: graph geometry, orderings, paths, rank/unrank
- adic: Vershik successor dynamics and return-time machinery
- coding: basic blocks, censuses, language counts, faithfulness probe
- factoring: block parsers, exclusion searches
- bratteli: general ordered diagrams, telescoping, odometer certificates
- cli: the batch command-line front end
"""

from .core import (BOTH_EXTREMAL, MAX, MIN, OrderingTable, PathPrefix, Vertex,
                   binomial, column_size, constant_ordering, explicit_ordering,
                   extreme_path, make_ordering, minimal_continuation, rank,
                   rule_ordering, seeded_ordering, tree_embedding_ordering,
                   unrank)
from .adic import (KINK_CASES, KinkCase, binom_mod, kink_classify,
                   kink_return_time, kink_verify, orbit_coding, predecessor,
                   successor, weakmixing_row_check)
from .coding import (CylSymbol, basic_block, basic_block_k, enumerate_blocks,
                     faithfulness_probe, language_words, stabilized_complexity,
                     symbol_census)
from .factoring import (AltState, CDToken, alternation_exclusion, alt_state,
                        combine_alt, decode_ordering, decompose_CD,
                        intersection_probe, periodic_exclusion,
                        run_context_report, small_subshift_orderings,
                        unique_factorization_check)
from .bratteli import (MonteCarloReport, OrderedDiagram, Shape,
                       exact_uniform_probability, is_uniformly_ordered,
                       monte_carlo_uniform, odometer_certificate,
                       pascal_as_diagram, telescope)

__version__ = "0.1.0"
