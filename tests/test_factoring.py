import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adiclab import factoring
from adiclab.coding import basic_block, block_word_k, iter_restricted_blocks
from adiclab.core import Vertex, binomial, explicit_ordering, seeded_ordering
from adiclab.errors import AdiclabError, ParseError, ResourceCap
from adiclab.factoring import (ALT_CAP, PAIR_BYTES, _LEFT, _MAXES, _RIGHT,
                               CDToken, RunContextReport, _Combiner,
                               _junctions, _narrow, _pack, _phase2_levels,
                               _present_prefix, _scan_block_contexts, _swap,
                               _swap_wide, _widen, alt_state,
                               alternation_exclusion, combine_alt,
                               decode_ordering, decompose_CD,
                               intersection_probe, periodic_exclusion,
                               run_context_report, small_subshift_orderings,
                               unique_factorization_check)

from conftest import (WORKED_BITS, WORKED_BLOCK, WORKED_TOKENS, AnyParents,
                      alternation_exclusion_reference,
                      combine_packed_reference, decode_reference,
                      decompose_CD_reference, exact_states_reference,
                      expand, factorization_scheme_counts_reference,
                      orderings,
                      periodic_reference, phase1_exact_reference,
                      phase1_reference, phase2_reachable,
                      phase2_reachable_reference,
                      phase2_reference, reachable_alt_states,
                      run_context_report_reference,
                      scan_block_contexts_reference, seeds)


def test_decompose_worked_example():
    assert [str(t) for t in decompose_CD(WORKED_BLOCK)] == WORKED_TOKENS


def test_decompose_simple_and_errors():
    assert decompose_CD("aab") == [CDToken("C", 2)]
    assert decompose_CD("abb") == [CDToken("D", 2)]
    with pytest.raises(ParseError) as err:
        decompose_CD("ba")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        decompose_CD("ab")  # ambiguous token is banned
    with pytest.raises(ParseError):
        decompose_CD("aabba")  # leftover b after a C token


@pytest.mark.parametrize("word, position", [
    ("abc", 2), ("c", 0), ("aabB", 3), ("aab abb", 3), ("abbbabbaab\n", 10)])
def test_decompose_refuses_other_letters_at_their_position(word, position):
    # before any token check: "abc" alone would be the banned token ab
    with pytest.raises(ParseError, match="is neither a nor b") as err:
        decompose_CD(word)
    assert err.value.position == position
    with pytest.raises(ParseError, match=f"neither a nor b \\(at {position}"):
        decode_ordering(word)


def _tokens_or_error(tokenize, word):
    try:
        return tokenize(word)
    except ParseError as exc:
        return str(exc), exc.position


@settings(max_examples=500, deadline=None)
@given(st.text("abc", max_size=40))
def test_decompose_matches_reference(word):
    # the same tokens, or the same ParseError message at the same position
    assert _tokens_or_error(decompose_CD, word) == \
        _tokens_or_error(decompose_CD_reference, word)


def test_decompose_expansion_roundtrip():
    for _, word in iter_restricted_blocks(4, 3):
        tokens = decompose_CD(word)
        assert "".join(map(expand, tokens)) == word
        assert all(t.index >= 2 for t in tokens)


def test_decode_worked_example():
    vertex, table = decode_ordering(WORKED_BLOCK)
    assert vertex == Vertex(4, 3)
    got = {(x, y): table.bit(x, y) for x in range(2, 5) for y in range(2, 4)}
    assert got == WORKED_BITS


def test_decode_small_cases():
    assert decode_ordering("aab")[0] == Vertex(2, 1)
    assert decode_ordering("ab")[0] == Vertex(1, 1)
    assert decode_ordering("abbb")[0] == Vertex(1, 3)


def test_decode_roundtrip_exhaustive_to_4():
    for x in range(2, 5):
        for y in range(2, 5):
            for bits, word in iter_restricted_blocks(x, y):
                vertex, table = decode_ordering(word)
                assert vertex == Vertex(x, y)
                for (u, v), b in bits.items():
                    assert table.bit(u, v) == b


def test_decode_roundtrip_sampled_to_6():
    rng = random.Random(0)
    free = [(u, v) for u in range(2, 7) for v in range(2, 7)]
    for _ in range(40):
        bits = {uv: rng.randint(0, 1) for uv in free}
        xi = explicit_ordering(bits, max_level=12)
        word = basic_block(xi, 6, 6)
        vertex, table = decode_ordering(word)
        assert vertex == Vertex(6, 6)
        assert all(table.bit(u, v) == b for (u, v), b in bits.items())


def test_decode_long_block_round_trips():
    # a valid 721,801-letter block whose segments nest 1,200 deep
    word = basic_block(explicit_ordering({}, 1202), 2, 1200)
    vertex, table = decode_ordering(word)
    assert vertex == Vertex(2, 1200)
    assert all(table.bit(2, v) == 0 for v in range(2, 1201))


def test_decode_peak_memory_stays_small():
    # the skip keeps each vertex's first offset: keeping its segment text
    # instead holds about y^3 / 6 letters at (2, y), 82 MiB at y = 800
    word = basic_block(explicit_ordering({}, 802), 2, 800)
    tracemalloc.start()
    try:
        decode_ordering(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**25 - 1))
def test_decode_inverts_basic_block(x, y, mask):
    free = [(u, v) for u in range(2, x + 1) for v in range(2, y + 1)]
    bits = {uv: mask >> i & 1 for i, uv in enumerate(free)}
    word = basic_block(explicit_ordering(bits, x + y), x, y)
    vertex, table = decode_ordering(word)
    assert vertex == Vertex(x, y)
    assert {uv: table.bit(*uv) for uv in free} == bits


def test_decode_rejects_corrupt_words():
    word = WORKED_BLOCK[:-1] + "a"
    with pytest.raises(ParseError):
        decode_ordering(word)
    # the empty word is refused as empty, not as a segment of (1, 1)
    for decode in (decode_ordering, decode_reference):
        assert _decode_outcome(decode, "") == \
            (ParseError, "empty word (at 0)", 0)


def _decode_outcome(decode, word):
    """(vertex, table JSON), or the error's class, text and position."""
    try:
        vertex, table = decode(word)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return vertex, table.to_json()


def _mutate(word, kind, i, j, letter):
    i, j = i % len(word), j % len(word)
    if kind == "flip":
        return word[:i] + ("b" if word[i] == "a" else "a") + word[i + 1:]
    if kind == "swap":
        chars = list(word)
        chars[i], chars[j] = chars[j], chars[i]
        return "".join(chars)
    if kind == "delete":
        return word[:i] + word[i + 1:]
    if kind == "insert":
        return word[:i] + letter + word[i:]
    return word


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**25 - 1),
       st.sampled_from(["none", "flip", "swap", "delete", "insert"]),
       st.integers(0, 923), st.integers(0, 923), st.sampled_from("ab"))
# a flip inside a later segment of an interior vertex whose first segment
# decoded: the segment keeps its length but not its text, so the decoder
# may not skip it
@example(5, 5, 0, "flip", 220, 0, "a")
@example(5, 5, 0xFFFF, "flip", 217, 0, "a")
@example(5, 5, 0x5A5A, "flip", 250, 0, "a")
@example(5, 5, 12345, "flip", 210, 0, "a")
def test_decode_matches_reference(x, y, mask, kind, i, j, letter):
    free = [(u, v) for u in range(2, x + 1) for v in range(2, y + 1)]
    bits = {uv: mask >> t & 1 for t, uv in enumerate(free)}
    word = basic_block(explicit_ordering(bits, x + y), x, y)
    word = _mutate(word, kind, i, j, letter)
    got = _decode_outcome(decode_ordering, word)
    want = _decode_outcome(decode_reference, word)
    if got[0] is ParseError and "cuts a token" in got[1]:
        # a valid block cuts only at token starts, so the reference,
        # which re-tokenizes the segment, must fail too
        assert isinstance(want[0], type) and issubclass(want[0], AdiclabError)
    else:
        assert got == want


def _token_starts(word):
    starts, offset = {0}, 0
    for tok in decompose_CD(word):
        offset += tok.index + 1
        starts.add(offset)
    return starts


# words of valid tokens and a consistent length in which a cut falls inside
# a token, with the segment's vertex and the offset of the cut
CUT_INSIDE_TOKEN = {
    "aababbbabb": ("(2,2)", 6),
    "aabaaababbbabbabbabb": ("(3,2)", 10),
    "aaababbaabaababbbabb": ("(2,2)", 16),
    "aaaababbaaabaab": ("(2,2)", 11),
    "aaabaababbbaababbabb": ("(3,2)", 10),
    "aaababbbabbabbaabaab": ("(3,2)", 10),
    "abbbabbbabbbaaababbbbabbbabbaababbb": ("(3,3)", 20),
}


@pytest.mark.parametrize("word", CUT_INSIDE_TOKEN)
def test_decode_cut_inside_token_matches_reference(word):
    vertex, position = CUT_INSIDE_TOKEN[word]
    got = _decode_outcome(decode_ordering, word)
    assert got == (ParseError,
                   f"segment for {vertex} cuts a token (at {position})",
                   position)
    assert position not in _token_starts(word)
    want = _decode_outcome(decode_reference, word)
    assert isinstance(want[0], type) and issubclass(want[0], ParseError)


# words of valid tokens and a consistent length that a segment's expected
# token or a recovered bit refuses, with the refusal and its offset
REFUSED_SEGMENT = {
    "aabaaababb": ("expected C3", 0),
    "abbabbbaab": ("expected D3", 0),
    "aaabaababbabbbabbaab": ("inconsistent bit recovered at (2,2)", 14),
}


@pytest.mark.parametrize("word", REFUSED_SEGMENT)
def test_decode_refused_segment_matches_reference(word):
    message, position = REFUSED_SEGMENT[word]
    got = _decode_outcome(decode_ordering, word)
    assert got == (ParseError, f"{message} (at {position})", position)
    assert got == _decode_outcome(decode_reference, word)


def test_unique_factorization_k3_seeded():
    for xi in seeds(10):
        for n in range(3, 9):
            assert unique_factorization_check(xi, 3, n)


def test_unique_factorization_k1_restricted_box3():
    free = [(u, v) for u in range(2, 4) for v in range(2, 4)]
    for choice in itertools.product((0, 1), repeat=len(free)):
        xi = explicit_ordering(dict(zip(free, choice)), max_level=6)
        for n in range(2, 7):
            assert unique_factorization_check(xi, 1, n)


@pytest.mark.parametrize("k, n", [(0, 0), (-1, -1), (0, 3), (4, 3)])
def test_unique_factorization_refuses_k_outside_1_to_n(k, n):
    with pytest.raises(ValueError, match=re.escape("1 <= k <= n")):
        unique_factorization_check(seeded_ordering(3), k, n)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xi=orderings(), k=st.integers(1, 3), data=st.data())
def test_unique_factorization_matches_reference_property(xi, k, data):
    n = data.draw(st.integers(k, 8), label="n")
    counts = factorization_scheme_counts_reference(xi, k, n)
    assert unique_factorization_check(xi, k, n) == \
        all(c == 1 for c in counts.values())


def test_unique_factorization_on_many_splits():
    # a True verdict means every scheme count is 1 even where blocks split
    # in many ways, and such blocks make the check say False
    verdicts = set()
    for seed in range(200):
        xi = AnyParents(seed)
        for k in (1, 2, 3):
            block = basic_block if k == 1 else \
                lambda xi, x, y: block_word_k(xi, k, x, y)
            for n in range(k, 9):
                # the reference needs the blocks of each level distinct
                if any(len({block(xi, x, lvl - x) for x in range(lvl + 1)})
                       <= lvl for lvl in range(k, n + 1)):
                    continue
                unique = unique_factorization_check(xi, k, n)
                if unique:
                    counts = factorization_scheme_counts_reference(xi, k, n)
                    assert all(c == 1 for c in counts.values())
                verdicts.add(unique)
    assert verdicts == {True, False}


def test_alt_state_combine_matches_direct():
    rng = random.Random(2)
    for _ in range(10000):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 25)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 25)))
        assert combine_alt(alt_state(u), alt_state(v)) == alt_state(u + v)


def test_alt_state_refuses_letters_other_than_a_and_b():
    # a packed state keeps only whether each end letter is b, so another
    # letter would be read as a
    for call in (lambda: alt_state("abc"),
                 lambda: combine_alt(alt_state("ab"), alt_state("xa"))):
        with pytest.raises(ValueError, match=r"^alphabet must be \{a, b\}$"):
            call()


def _alternating(first, length):
    return ((first + ("b" if first == "a" else "a")) * length)[:length]


# words made of a few alternating stretches, long enough to saturate
_ALTERNATING_WORDS = st.lists(
    st.builds(_alternating, st.sampled_from("ab"), st.integers(1, 45)),
    min_size=1, max_size=4).map("".join)


@settings(max_examples=400, deadline=None)
@given(_ALTERNATING_WORDS, _ALTERNATING_WORDS)
def test_combine_alt_is_alt_state_of_concatenation(u, v):
    assert combine_alt(alt_state(u), alt_state(v)) == alt_state(u + v)


@st.composite
def _packed_pairs(draw):
    """Two packed states with every field in 0..cap, and the cap."""
    cap = draw(st.integers(3, 31))

    def state():
        fields = st.integers(0, cap)
        return (draw(st.integers(0, 7)) | draw(fields) << 3
                | draw(fields) << 8 | draw(fields) << 13 | draw(fields) << 18)

    return state(), state(), cap


@settings(max_examples=1000, deadline=None)
@given(_packed_pairs())
def test_combiner_matches_reference(pair):
    a, b, cap = pair
    assert _Combiner(cap)[a << 24 | b] == combine_packed_reference(a, b, cap)


def test_alt_state_of_extremal_alternation_blocks():
    xi, xi_prime = small_subshift_orderings()
    s = alt_state(basic_block(xi, 3, 3))
    assert (s.maxab, s.maxba) == (18, 17)
    s = alt_state(basic_block(xi_prime, 3, 3))
    assert (s.maxab, s.maxba) == (17, 18)


def test_alternation_exclusion_small():
    verdict = alternation_exclusion(8, 9)
    assert verdict.excluded and verdict.exact_excluded and verdict.dp_excluded
    with pytest.raises(ResourceCap, match="exceeds saturation cap"):
        alternation_exclusion(6, 12)


def test_alternation_exclusion_negative_control():
    # (ab)^3 and (ba)^3 do co-occur in real blocks, so j = 3 must fail
    verdict = alternation_exclusion(7, 3)
    assert not verdict.exact_excluded
    assert verdict.witness_level == 5
    assert verdict.witness_state.maxab >= 6 and verdict.witness_state.maxba >= 6


def test_alternation_phase2_witness(monkeypatch):
    # the exact level 4 lies below the first level where (ab)^3 and (ba)^3
    # meet, so the verdict is exactly excluded to level 4 and its witness
    # is phase 2's first flag, at level 5
    monkeypatch.setattr(factoring, "EXACT_LEVEL", 4)
    verdict = alternation_exclusion(7, 3)
    assert verdict.exact_excluded and not verdict.dp_excluded
    assert verdict.witness_level == 5
    state = verdict.witness_state
    assert state.maxab >= 6 and state.maxba >= 6
    reach = reachable_alt_states(5)
    # the least flagged packed state over every vertex of level 5
    assert _pack(state) == min(_pack(s) for y in range(1, 5)
                               for s in reach[(5 - y, y)]
                               if s.maxab >= 6 and s.maxba >= 6)
    # no flagged state is reachable one level lower
    assert not any(s.maxab >= 6 and s.maxba >= 6
                   for y in range(1, 4) for s in reach[(4 - y, y)])


@pytest.mark.parametrize("j", [1, 2, 3])
def test_alternation_witness_matches_brute_force(j):
    # the first level where a block of some ordering holds both (ab)^j and
    # (ba)^j, and the least packed state of such a block: every explicit
    # ordering to that level is tried (3, 6 and 10 free bits)
    need = 2 * j
    for level in itertools.count(2):
        free = [(x, n - x) for n in range(2, level + 1) for x in range(1, n)]
        hits = []
        for choice in itertools.product((0, 1), repeat=len(free)):
            xi = explicit_ordering(dict(zip(free, choice)), max_level=level)
            states = [alt_state(basic_block(xi, x, level - x))
                      for x in range(1, level)]
            hits += [_pack(s) for s in states
                     if s.maxab >= need and s.maxba >= need]
        if hits:
            break
    assert level == j + 2
    verdict = alternation_exclusion(7, j)
    assert verdict.witness_level == level
    assert _pack(verdict.witness_state) == min(hits)


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 9])
def test_phase1_matches_reference(j):
    # the enumeration that `alternation_exclusion_reference` runs for the
    # exact verdict against the loop over every bit pattern; j = 9 never
    # flags, so every vector set to level 6 is built
    for level in range(4, 8 if j < 9 else 7):
        assert phase1_exact_reference(j, level, _Combiner(ALT_CAP)) == \
            phase1_reference(j, level, ALT_CAP)


@pytest.mark.parametrize("j", [1, 3, 9])
def test_phase2_matches_reference(j):
    for level in range(1, 10):
        excluded, reach, witness = phase2_reachable(j, level,
                                                    _Combiner(ALT_CAP))
        assert (excluded, reach) == phase2_reference(j, level, ALT_CAP)
        assert (witness is None) == excluded


_SWAP_LETTERS = str.maketrans("ab", "ba")


@st.composite
def _orderings_to_level_12(draw):
    """A seeded ordering, or an explicit one with random bits to level 12."""
    if draw(st.booleans()):
        return seeded_ordering(draw(st.integers(0, 2**63 - 1)),
                               draw(st.sampled_from([0.5, 0.1, 0.9])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return explicit_ordering({(x, n - x): rng.randrange(2)
                              for n in range(2, 13) for x in range(1, n)}, 12)


@settings(max_examples=25, deadline=None)
@given(_orderings_to_level_12())
def test_reflection_maps_orderings_to_orderings(xi):
    # (x, y) -> (y, x) with every bit flipped is an ordering whose blocks
    # are xi's with a and b swapped: the symmetry phase 2 builds half on
    mirror = explicit_ordering({(y, x): 1 - xi.bit(x, y)
                                for n in range(2, 13)
                                for x in range(1, n) for y in [n - x]}, 12)
    for n in range(1, 13):
        for x in range(n + 1):
            assert basic_block(mirror, n - x, x) == \
                basic_block(xi, x, n - x).translate(_SWAP_LETTERS)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_ALTERNATING_WORDS,
                 st.text("ab", min_size=1, max_size=60)))
def test_letter_swap_is_the_state_of_the_swapped_word(w):
    assert _swap(_pack(alt_state(w))) == \
        _pack(alt_state(w.translate(_SWAP_LETTERS)))


@settings(max_examples=1000, deadline=None)
@given(_packed_pairs())
def test_combiner_commutes_with_the_letter_swap(pair):
    a, b, cap = pair
    assert _Combiner(cap)[_swap(a) << 24 | _swap(b)] == \
        _swap(combine_packed_reference(a, b, cap))


@st.composite
def _open_states(draw):
    """A packed state that is not `full`, with every run field in
    0..ALT_CAP and free end letters."""
    fields = st.integers(0, ALT_CAP)
    return (draw(st.integers(0, 3)) << 1 | draw(fields) << 3
            | draw(fields) << 8 | draw(fields) << 13 | draw(fields) << 18)


@settings(max_examples=1000, deadline=None)
@given(_open_states(), _open_states())
def test_junction_table_combine_matches_reference(a, b):
    # the search's combine of two wide states that are not `full`
    jt = _junctions()
    for u, v in ((a, b), (b, a)):
        wu, wv = _widen(u), _widen(v)
        got = (wu & _LEFT | wv & _RIGHT | (wu | wv) & _MAXES
               | jt[wu & _RIGHT | wv & _LEFT])
        assert _narrow(got) == combine_packed_reference(u, v, ALT_CAP)


@settings(max_examples=500, deadline=None)
@given(_open_states(), st.booleans())
def test_wide_states_round_trip_and_swap(s, full):
    s |= full
    assert _narrow(_widen(s)) == s
    assert _narrow(_swap_wide(_widen(s))) == _swap(s)


def test_search_combines_only_full_states_through_the_memo():
    # every pair of two states that are not `full` combines through the
    # junction table, so a level-10 search leaves only the few keys that
    # hold a `full` state
    comb = _Combiner(ALT_CAP)
    for _ in _phase2_levels(10, comb):
        pass
    assert len(comb) <= 64


@pytest.mark.parametrize("j", range(1, 10))
def test_phases_match_their_full_level_references(j):
    comb = _Combiner(ALT_CAP)
    for level in range(1, 12 if j == 9 else 11):
        assert phase2_reachable(j, level, comb) == \
            phase2_reachable_reference(j, level, comb)


@pytest.mark.parametrize("j", range(1, (ALT_CAP - 1) // 2 + 1))
def test_alternation_exclusion_matches_both_phases_run(j, monkeypatch):
    # the verdict, witness included, equals the one from the exact
    # enumeration of every ordering to min(L, EXACT_LEVEL) and phase 2 to
    # L: phase 2's first flag at a level up to EXACT_LEVEL is realized,
    # with the same least state, by some block.  The exact answer depends
    # only on j and min(L, EXACT_LEVEL), and phase 2's first flag not on
    # L, so L up to one past EXACT_LEVEL covers every L
    top = factoring.EXACT_LEVEL
    for exact_level in (1, 4, top):
        monkeypatch.setattr(factoring, "EXACT_LEVEL", exact_level)
        for L in range(1, top + 2):
            assert alternation_exclusion(L, j) == \
                alternation_exclusion_reference(L, j, exact_level)


# the number of phase-2 pairs, both halves counted, at levels 2..10
_PAIR_COUNTS = [4, 13, 64, 392, 1794, 6813, 18440, 38673, 76256]


@pytest.mark.parametrize("level, count", enumerate(_PAIR_COUNTS, start=2))
def test_phase2_size_cap_matches_reference(level, count):
    # a search to level + 1 counts the pairs of the levels below it, so its
    # last counted level is `level`
    comb = _Combiner(ALT_CAP)
    under = 256 * count - 1
    message = (f"phase 2 pairs at level {level} hold about {256 * count} "
               f"bytes, over the {under}-byte cap")
    for phase2 in (phase2_reachable, phase2_reachable_reference):
        with pytest.raises(ResourceCap) as caught:
            phase2(9, level + 1, comb, under)
        assert str(caught.value) == message
    phase2_reachable(9, level + 1, comb, 256 * count)  # fits exactly
    assert phase2_reachable(9, level, comb, 256 * count) == \
        phase2_reachable_reference(9, level, comb, 256 * count)


def _phase2_traced_peak(level, max_bytes=None):
    """The tracemalloc peak of phase 2 at j = 9 to `level`, from an empty
    combine memo."""
    tracemalloc.start()
    try:
        phase2_reachable(9, level, _Combiner(ALT_CAP), max_bytes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("level", range(7, 12))
def test_phase2_peak_is_within_its_counted_pairs(level):
    # the cap counts the pairs of levels 2..L - 1, so at PAIR_BYTES a pair
    # it must cover what an uncapped search to level L holds
    assert _phase2_traced_peak(level) <= PAIR_BYTES * _PAIR_COUNTS[level - 3]


def test_phase2_cap_costs_no_memory():
    # a cap the search fits under builds nothing the uncapped search does not
    uncapped = _phase2_traced_peak(10)
    capped = _phase2_traced_peak(10, PAIR_BYTES * _PAIR_COUNTS[7])
    assert capped <= 1.05 * uncapped


@pytest.mark.parametrize("j", range(1, 10))
def test_phase2_cap_changes_no_output(j):
    # a cap the search fits under changes neither reach sets nor witness
    comb = _Combiner(ALT_CAP)
    for level in range(1, 12):
        assert phase2_reachable(j, level, comb) == \
            phase2_reachable(j, level, comb, 2**40)


@pytest.mark.parametrize("j, level", enumerate([3, 4, 5, 5, 6, 6, 6, 6],
                                                start=1))
def test_flagged_search_stops_at_its_first_flag(j, level):
    # level 7's pairs exceed 1 MiB, but a flagged search builds no level
    # past its first flag
    verdict = alternation_exclusion(12, j, max_bytes=1 << 20)
    assert verdict == alternation_exclusion(12, j)
    assert verdict.witness_level == level


def test_excluding_search_meets_the_cap():
    with pytest.raises(ResourceCap, match="pairs at level 7 hold"):
        alternation_exclusion(12, 9, max_bytes=1 << 20)


def test_alternation_search_peak_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        alternation_exclusion(10, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024


def test_phase2_contains_exact_states():
    reach = reachable_alt_states(5)
    free = [(x, y) for n in range(2, 6) for x in range(1, n) for y in [n - x]]
    for choice in itertools.product((0, 1), repeat=len(free)):
        xi = explicit_ordering(dict(zip(free, choice)), max_level=5)
        for x, y in free:
            assert alt_state(basic_block(xi, x, y)) in reach[(x, y)]


def test_phase2_contains_phase1_states_at_every_level():
    # phase 2's exclusion implies the exact one because every state of
    # every ordering at a level lies in phase 2's reach sets of that level
    comb = _Combiner(ALT_CAP)
    _, reach, _ = phase2_reachable(9, 7, comb)
    for n, states in exact_states_reference(7, comb):
        assert states <= set().union(*[reach[(n - y, y)]
                                        for y in range(1, n)])


def test_run_context_report_xi():
    xi, _ = small_subshift_orderings()
    for l in (7, 8, 9, 10):
        rep = run_context_report(xi, l, 16)
        long = "b" + "a" * l + "b" + "a" * l + "b" + "a" * (l - 1) + "b"
        short = "b" + "a" * l + "b" + "a" * (l - 1) + "b"
        assert set(rep.contexts) == {long, short}


def test_run_context_report_xi_prime_forms():
    _, xi_prime = small_subshift_orderings()
    for l in (7, 8):
        rep = run_context_report(xi_prime, l, 16)
        a = "a" * l
        form = re.compile(f"b{a}b|b{a}b{a}b{{2,}}a")
        assert all(form.fullmatch(w) for w in rep.contexts)


@st.composite
def long_run_words(draw):
    """(word, l, inner): a word of runs of 1-14 letters, runs of l, l - 1
    and 1 letters drawn often, so l-runs chain into clusters."""
    l = draw(st.integers(7, 12))
    lengths = draw(st.lists(st.one_of(st.integers(1, 14),
                                      st.sampled_from([1, l - 1, l])),
                            min_size=1, max_size=40))
    letters = itertools.cycle(draw(st.sampled_from(["ab", "ba"])))
    word = "".join(c * n for c, n in zip(letters, lengths))
    return word, l, draw(st.sampled_from("ab"))


@settings(max_examples=300, deadline=None)
@given(long_run_words())
def test_scan_block_contexts_matches_reference(case):
    word, l, inner = case
    outer = "b" if inner == "a" else "a"
    got = RunContextReport(l, 0, Counter(), Counter())
    want = RunContextReport(l, 0, Counter(), Counter())
    _scan_block_contexts(word, l, re.compile(
        f"(?<={outer}){inner}{{{l}}}(?:{outer}{inner}{{{l}}}(?={outer}))*"
        f"(?={outer})"), got)
    scan_block_contexts_reference(word, l, inner, want)
    assert (got.contexts, got.clipped) == (want.contexts, want.clipped)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**63 - 1), st.sampled_from([0.5, 0.1, 0.9]),
       st.integers(7, 12), st.integers(8, 14))
def test_run_context_report_matches_reference(seed, bias, l, L):
    xi = seeded_ordering(seed, bias)
    got = run_context_report(xi, l, L)
    want = run_context_report_reference(xi, l, L)
    assert (got.contexts, got.clipped) == (want.contexts, want.clipped)


def test_run_context_generic_reporting():
    rep = run_context_report(seeded_ordering(3), 7, 14)
    assert (rep.run_length, rep.level) == (7, 14)
    with pytest.raises(ValueError):
        run_context_report(seeded_ordering(3), 5, 10)


def test_intersection_probe_basics():
    xi, xi_prime = small_subshift_orderings()
    assert intersection_probe(xi, xi_prime, 1, 4) == {"a", "b"}
    a = intersection_probe(xi, xi_prime, 7, 12)
    b = intersection_probe(xi_prime, xi, 7, 12)
    assert a == b


def test_periodic_exclusion():
    xi = seeded_ordering(5)
    rep = periodic_exclusion(xi, 2, 18)
    assert rep.all_excluded and len(rep.cases) == 2
    assert rep.window_length == 3 * binomial(12, 6) + 1
    with pytest.raises(ValueError, match="^period must be at least 2$"):
        periodic_exclusion(xi, 1, 10)


def test_periodic_exclusion_constant0_aabb():
    rep = periodic_exclusion(explicit_ordering({}, max_level=20), 4, 18)
    assert rep.all_excluded
    case, = (c for c in rep.cases if c.period_word == "aabb")
    assert case.absent_window is not None
    assert case.minimal_absent_length <= case.window_length


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("ab", max_size=12), min_size=1, max_size=4),
       st.text("ab", min_size=1, max_size=10))
@example(["aaab"], "aabaab")  # the longer match starts one letter later
def test_present_prefix_is_longest_occurring_prefix(blocks, s):
    longest = max(m for m in range(len(s) + 1)
                  if any(s[:m] in blk for blk in blocks))
    assert _present_prefix(blocks, s) == longest


def test_periodic_exclusion_matches_reference():
    # the reference keeps the window text it searched, so the window each
    # excluded case rebuilds is checked against a separate construction
    orderings = [seeded_ordering(seed) for seed in range(10)]
    orderings.append(explicit_ordering({}, max_level=20))
    for xi in orderings:
        for p in (2, 3, 4):
            report = periodic_exclusion(xi, p, 18)
            want, windows = periodic_reference(xi, p, 18)
            assert report == want
            for case, window in zip(report.cases, windows):
                assert case.absent_window == window
                assert case.excluded == (window is not None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 8))
def test_periodic_exclusion_matches_reference_small(seed, p, L):
    xi = seeded_ordering(seed)
    assert periodic_exclusion(xi, p, L) == periodic_reference(xi, p, L)[0]


def test_periodic_report_keeps_no_window_text():
    # a p = 4 window is 554,269 letters, and 14 cases would keep 7.8 MB;
    # the report holds only the fields that determine each window
    xi = seeded_ordering(0)
    for x in range(19):
        basic_block(xi, x, 18 - x)  # warm the level-18 blocks
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = periodic_exclusion(xi, 4, 18)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.all_excluded and len(report.cases) == 14
    assert held < 64 << 10


def test_periodic_window_is_built_only_as_far_as_a_block_reaches():
    # a p = 6 window is 3 C(28, 14) + 1 = 120,180,961 letters, but no
    # level-12 block is longer than C(12, 6) = 924, so a prefix of 925
    # letters already decides each case
    xi = seeded_ordering(1)
    tracemalloc.start()
    try:
        report = periodic_exclusion(xi, 6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.cases) == 62
    assert all(c.excluded and c.vacuous for c in report.cases)
    assert peak < 10 << 20


def test_periodic_vacuous_iff_window_outgrows_every_block():
    # the longest level-L block is C(L, L // 2) letters long
    flags = set()
    for seed in (0, 5):
        xi = seeded_ordering(seed)
        for p in (2, 3, 4):
            for L in (10, 14, 18):
                longest = binomial(L, L // 2)
                report = periodic_exclusion(xi, p, L)
                for case in report.cases:
                    assert case.vacuous == (case.window_length > longest)
                    flags.add(case.vacuous)
                # every case of a period shares one window length
                cases = 2**p - 2
                vacuous = cases if report.window_length > longest else 0
                assert report.scope == (f"blocks up to level {L}; {vacuous} "
                                        f"of {cases} cases vacuous")
    assert flags == {True, False}
