import itertools

import pytest

from adiclab.core import PathPrefix, Vertex, explicit_ordering, seeded_ordering


WORKED_BITS = {(2, 2): 1, (3, 2): 0, (4, 2): 1, (2, 3): 1, (3, 3): 1, (4, 3): 1}
# the worked block ab^3 ab^2 a^2b a^3b ab^2 a^2b a^3b ab^2 a^2b a^4b
WORKED_BLOCK = ("a" + "b" * 3 + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 3 + "b"
              + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 3 + "b"
              + "a" + "b" * 2 + "a" * 2 + "b" + "a" * 4 + "b")
WORKED_TOKENS = ["D3", "D2", "C2", "C3", "D2", "C2", "C3", "D2", "C2", "C4"]


@pytest.fixture
def worked_ordering():
    """The ordering recovered in the worked decoding example."""
    return explicit_ordering(WORKED_BITS, max_level=7)


def all_paths(level):
    """Every path prefix of the given length."""
    return [PathPrefix(s) for s in itertools.product((0, 1), repeat=level)]


def column_paths(level, x):
    """Every path to (x, level - x)."""
    return [p for p in all_paths(level) if p.terminal == Vertex(x, level - x)]


def seeds(count, base=0):
    return [seeded_ordering(base + t) for t in range(count)]


# Reference column sweep by successor iteration on a byte array of steps
# (0 = a step, 1 = b step).  An interior edge entered via step s is maximal
# iff s equals the bit at its range, minimal iff it differs; boundary edges
# are both and are skipped when looking for a pivot.

def _fill_min_path(bit, x, y, steps, upto):
    # Fill steps[0:upto] with the minimal path to (x, y), walking backward.
    for pos in range(upto - 1, -1, -1):
        if x == 0:
            steps[pos] = 1
            y -= 1
        elif y == 0:
            steps[pos] = 0
            x -= 1
        elif bit(x, y) == 1:
            steps[pos] = 0
            x -= 1
        else:
            steps[pos] = 1
            y -= 1


def _successor_inplace(bit, steps, n):
    # Returns the pivot level, or -1 when the path is maximal.
    x = y = 0
    for i in range(n):
        s = steps[i]
        if s == 0:
            x += 1
        else:
            y += 1
        if x > 0 and y > 0 and s != bit(x, y):
            flipped = 1 - s
            steps[i] = flipped
            if flipped == 0:
                _fill_min_path(bit, x - 1, y, steps, i)
            else:
                _fill_min_path(bit, x, y - 1, steps, i)
            return i
    return -1


def successor_sweep(xi, x, y, k):
    """Sweep the whole column over (x, y) in rank order by the successor.

    Emits one byte per path: the bitmask of its first min(k, x+y) steps
    (bit t set iff step t is a b step).  Requires k <= 8.
    """
    if k > 8:
        raise ValueError("k <= 8 for byte-coded symbols")
    bit = xi.bit
    n = x + y
    kk = min(k, n)
    steps = bytearray(n)
    _fill_min_path(bit, x, y, steps, n)
    out = bytearray()
    while True:
        sym = 0
        for t in range(kk):
            sym |= steps[t] << t
        out.append(sym)
        if _successor_inplace(bit, steps, n) < 0:
            return bytes(out)
