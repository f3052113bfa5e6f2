"""Finite ordered Bratteli diagrams, telescoping, and odometer certificates.

Orders are stored as the coding words c(w) themselves: the word of a
target vertex lists the sources of its incoming edges in increasing edge
order, so telescoping is word substitution.  Level 0 always has the
single root vertex.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Optional

from .core import OrderingTable
from .errors import InputError


def _load_json(text: str):
    """The document in `text`; an InputError when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(str(exc)) from exc


@dataclass(frozen=True)
class OrderedDiagram:
    """codings[n-1][w] is the word of level-(n-1) source ids for target w
    at level n; every word is nonempty and every source is used."""

    codings: tuple  # tuple over levels 1..N of tuples of word-tuples

    def __post_init__(self):
        sizes = self.level_sizes
        for n, level in enumerate(self.codings, start=1):
            if not level:
                raise ValueError(f"level {n} has no vertices")
            seen = set()
            for w, word in enumerate(level):
                if not word:
                    raise ValueError(f"empty coding at level {n} vertex {w}")
                bad = [s for s in word
                       if type(s) is not int or not 0 <= s < sizes[n - 1]]
                if bad:
                    raise ValueError(f"bad source ids {bad} at level {n}")
                seen.update(word)
            if seen != set(range(sizes[n - 1])):
                raise ValueError(f"sources not surjective into level {n}")

    @property
    def depth(self):
        return len(self.codings)

    @property
    def level_sizes(self):
        return [1] + [len(level) for level in self.codings]

    def coding(self, n: int, w: int):
        return self.codings[n - 1][w]

    def to_json(self) -> str:
        return json.dumps({"levels": self.level_sizes,
                           "coding": [[list(word) for word in level]
                                      for level in self.codings]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OrderedDiagram":
        doc = _load_json(text)
        if not isinstance(doc, dict) or "coding" not in doc:
            raise InputError('a diagram is a JSON object with a "coding" field')
        try:
            diagram = cls(tuple(tuple(tuple(word) for word in level)
                                for level in doc["coding"]))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad coding field: {exc}") from exc
        if doc.get("levels") and doc["levels"] != diagram.level_sizes:
            raise InputError("levels field disagrees with coding shape")
        return diagram


def _primitive_root(word: tuple) -> tuple:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def uniform_base(words) -> Optional[tuple]:
    """Shortest v with every word a positive power of v, if one exists."""
    words = [tuple(w) for w in words]
    base = _primitive_root(words[0])
    for w in words[1:]:
        if len(w) % len(base) or base * (len(w) // len(base)) != w:
            return None
    return base


def is_uniformly_ordered(d: OrderedDiagram, n: int) -> Optional[tuple]:
    """The base word when level n is uniformly ordered, else None."""
    if not 1 <= n <= d.depth:
        raise ValueError(f"1 <= n <= {d.depth}")
    return uniform_base(d.codings[n - 1])


def _window_codings(d: OrderedDiagram, a: int, b: int) -> tuple:
    """Codings of level-b vertices over level-a ids, by substitution."""
    expanded = [(v,) for v in range(d.level_sizes[a])]
    for lvl in range(a + 1, b + 1):
        expanded = [tuple(s for src in word for s in expanded[src])
                    for word in d.codings[lvl - 1]]
    return tuple(expanded)


def telescope(d: OrderedDiagram, cuts) -> OrderedDiagram:
    """Compose levels between consecutive cuts by word substitution."""
    cuts = list(cuts)
    if cuts[0] != 0 or cuts[-1] != d.depth or sorted(set(cuts)) != cuts:
        raise ValueError("cuts must increase from 0 to the last level")
    return OrderedDiagram(tuple(_window_codings(d, a, b)
                                for a, b in zip(cuts, cuts[1:])))


@dataclass
class OdometerCertificate:
    found: bool
    segments: list  # (start level, end level, base word) per telescoped level
    searched_depth: int
    message: str = ""


def odometer_certificate(d: OrderedDiagram, search_depth: int) -> OdometerCertificate:
    """Greedy search for a telescoping making every level uniformly ordered.

    Windows of up to `search_depth` consecutive levels are telescoped and
    tested left to right.  Success certifies conjugacy to an odometer for
    the finite diagram; failure is reported, never asserted as a negative.
    """
    if search_depth < 1:
        raise ValueError("search_depth >= 1")
    segments = []
    pos = 0
    while pos < d.depth:
        base = None
        for width in range(1, min(search_depth, d.depth - pos) + 1):
            base = uniform_base(_window_codings(d, pos, pos + width))
            if base is not None:
                segments.append((pos, pos + width, base))
                pos += width
                break
        if base is None:
            return OdometerCertificate(False, segments, search_depth,
                                       "NO-CERTIFICATE-FOUND")
    return OdometerCertificate(True, segments, search_depth,
                               "uniformly ordered after telescoping")


@dataclass(frozen=True)
class Shape:
    """Bipartite level pattern: multiplicity[s][t] edges from source s to
    target t."""

    multiplicity: tuple

    def __post_init__(self):
        rows = self.multiplicity
        if not rows or not rows[0]:
            raise ValueError("empty shape")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged multiplicity matrix")
        if any(type(m) is not int or m < 0 for r in rows for m in r):
            raise ValueError("multiplicities must be non-negative integers")
        if any(all(m == 0 for m in r) for r in rows):
            raise ValueError("source with no outgoing edges")
        for t in range(len(rows[0])):
            if all(r[t] == 0 for r in rows):
                raise ValueError("target with no incoming edges")

    @property
    def target_count(self):
        return len(self.multiplicity[0])

    def in_edges(self, t: int):
        """Multiset of sources of the edges into target t."""
        out = []
        for s, row in enumerate(self.multiplicity):
            out.extend([s] * row[t])
        return out

    def in_degree(self, t: int):
        return sum(row[t] for row in self.multiplicity)

    @classmethod
    def constant(cls, sources: int, targets: int, m: int = 1) -> "Shape":
        return cls(tuple((m,) * targets for _ in range(sources)))


def shapes_from_json(text: str) -> list:
    """The shapes of a `{"shapes": [multiplicity matrix, ...]}` document."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "shapes" not in doc:
        raise InputError('a shapes file is a JSON object with a "shapes" field')
    try:
        return [Shape(tuple(tuple(row) for row in rows))
                for rows in doc["shapes"]]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad shapes field: {exc}") from exc


def _multinomial(counts) -> int:
    """Number of distinct words with the given letter counts."""
    return factorial(sum(counts)) // prod(map(factorial, counts))


def exact_uniform_probability(shape: Shape) -> Fraction:
    """Probability that a uniform random order on the shape is uniformly
    ordered.

    Target t's word is uniform over the multinomial(c_t) words of its
    composition c_t (its edge count from each source).  The level is
    uniform iff every word is u^(q_t) for one word u; taking u as long as
    possible, its composition is e, e_s = gcd_t m[s][t].  So the uniform
    outcomes are the multinomial(e) words u when every c_t = q_t * e, and
    there are none otherwise.
    """
    rows = shape.multiplicity
    e = [gcd(*row) for row in rows]
    for c in zip(*rows):
        q = c[0] // e[0]
        if any(m != q * es for m, es in zip(c, e)):
            return Fraction(0)
    return Fraction(_multinomial(e),
                    prod(_multinomial(c) for c in zip(*rows)))


@dataclass
class MonteCarloLevel:
    shape: Shape
    trials: int
    uniform_hits: int
    exact: Fraction

    @property
    def frequency(self):
        return self.uniform_hits / self.trials


@dataclass
class MonteCarloReport:
    seed: int
    levels: list = field(default_factory=list)

    @property
    def partial_sums(self):
        """Borel-Cantelli partial sums of the exact probabilities."""
        sums = []
        acc = Fraction(0)
        for lvl in self.levels:
            acc += lvl.exact
            sums.append(acc)
        return sums


# (seed, trial, shape index, target): the blake2b key of one target's bits
_TRIAL_KEY = struct.Struct("<QQQQ").pack
# the refill counter appended to a key
_REFILL = struct.Struct("<Q").pack


def uniform_hits(shapes, seed: int, lo: int, hi: int) -> list:
    """Per shape, how many of the keyed trials lo..hi-1 order it uniformly.

    Each target's order is a Fisher-Yates shuffle of its in-edges, drawn
    from the target's own bits: the 64-byte blake2b digest of its key
    (seed, trial, shape, target) read as a little-endian int, and when
    those run out, the digests of the key with an 8-byte counter 1, 2, ...
    appended.  Index i takes the next k = (i+1).bit_length() bits, low bit
    first, and draws again while their value is not below i + 1, so every
    order is equally likely.  A trial's bits depend on (seed, trial)
    alone, so splitting a trial range into chunks and summing the hits
    gives the same counts, and a trial stops drawing at its first target
    whose word is not a power of the first word's primitive root (the test
    of `uniform_base`).
    """
    blake2b, from_bytes = hashlib.blake2b, int.from_bytes
    seed &= 2**64 - 1
    hits = []
    for lvl_idx, shape in enumerate(shapes):
        # per target: its in-edges and the (i, k, k-bit mask) of each draw
        targets = []
        for t in range(shape.target_count):
            in_edges = shape.in_edges(t)
            draws = []
            for i in range(len(in_edges) - 1, 0, -1):
                k = (i + 1).bit_length()
                draws.append((i, k, (1 << k) - 1))
            targets.append((t, in_edges, draws))
        count = 0
        for trial in range(lo, hi):
            base = None
            for t, in_edges, draws in targets:
                word = in_edges[:]
                if draws:
                    key = _TRIAL_KEY(seed, trial, lvl_idx, t)
                    pool = from_bytes(blake2b(key).digest(), "little")
                    bits, refills = 512, 0
                    for i, k, mask in draws:
                        j = i + 1
                        while j > i:
                            if bits < k:
                                refills += 1
                                pool |= from_bytes(
                                    blake2b(key + _REFILL(refills)).digest(),
                                    "little") << bits
                                bits += 512
                            j = pool & mask
                            pool >>= k
                            bits -= k
                        word[i], word[j] = word[j], word[i]
                if base is None:
                    base = _primitive_root(word)
                elif (len(word) % len(base)
                      or base * (len(word) // len(base)) != word):
                    break
            else:
                count += 1
        hits.append(count)
    return hits


def monte_carlo_report(shapes, trials: int, seed: int,
                       hits) -> MonteCarloReport:
    """Report of per-shape `hits` over `trials` trials, with exact values."""
    return MonteCarloReport(seed, [
        MonteCarloLevel(shape, trials, h, exact_uniform_probability(shape))
        for shape, h in zip(shapes, hits)])


def monte_carlo_uniform(shapes, trials: int, seed: int) -> MonteCarloReport:
    """Empirical uniform-level frequency per shape, with exact values and
    Borel-Cantelli partial sums."""
    if trials < 1:
        raise ValueError("trials >= 1")
    return monte_carlo_report(shapes, trials, seed,
                              uniform_hits(shapes, seed, 0, trials))


def pascal_as_diagram(xi: OrderingTable, L: int) -> OrderedDiagram:
    """The Pascal graph to level L as an ordered diagram.

    Vertex (x, y) at level n gets id y; interior coding words list the
    parents in `OrderingTable.parents` order.
    """
    if L < 1:
        raise ValueError("L >= 1")
    levels = []
    for n in range(1, L + 1):
        words = []
        for y in range(n + 1):
            x = n - y
            if y == 0:
                words.append((0,))
            elif x == 0:
                words.append((n - 1,))
            else:
                words.append(tuple(q for _, q in xi.parents(x, y)))
        levels.append(tuple(words))
    return OrderedDiagram(tuple(levels))
