"""CSV text of float blocks: each value as its shortest round-trip decimal.

`format_rows(values)` gives the bytes of `repr` of each value, joined by
commas row by row, but works on whole arrays at a time.  repr prints the
fewest digits that read back as x and, of those, the ones nearest x.
For a finite x with 1e-4 <= |x| < 1e16, where repr writes positional
notation, X = |x| 10^p is scaled into [1e16, 1e17) by an exact power of
ten and held exactly as hi + lo by Dekker's product (Numer. Math. 18,
1971).  The reals that read back as x form the interval X +- U, U being
half an ulp of x times 10^p, itself exact, and half of that below a
power of two (the interval of Adams, "Ryu", PLDI 2018).  The 17 digits
of the multiple of 100 in that interval, else of the multiple of 10
nearest X, else of the integer nearest X, are the shortest: the
interval is narrower than 23 units, so a multiple of 100 in it is
unique.  These choices are made in floats on quantities below about
200.  A value that comes closer than EPS to an interval bound or to a
tie between two candidates goes to repr itself, as do all other values
but zeros: nonzero below 1e-4, 1e16 or more, inf and nan.

Values are formatted CHUNK at a time into a fixed-width canvas of NUL
bytes, one canvas row per value, which `bytes.translate` compacts row
by row of the array.
"""

import numpy as np

from .errors import ConfigError

CHUNK = 8192  # values formatted at a time, rounded to whole rows
EPS = 1e-9  # decisions closer than this to a bound or a tie go to repr

# 10^p for p <= 22 is exact in a double, and so is its Veltkamp split
_P10 = np.array([float(10 ** p) for p in range(23)])
_SPLIT = 134217729.0  # 2^27 + 1


def _split(a):
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


_P10_HI, _P10_LO = _split(_P10)
_EXPONENT = 0x7FF << 52
_STEPS = np.array([[100.0], [10.0], [1.0]])
_STEP_INVERSE = 1.0 / _STEPS


def _shortest(a):
    """(M, p, ok): |x| = M 10^-p to shortest round-trip digits, 17 of them.

    ok is False where the value must go to repr.  a must hold finite
    values in [1e-4, 1e16).
    """
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    ten = _P10[p]
    hi = a * ten
    a_hi, a_lo = _split(a)
    lo = ((a_hi * _P10_HI[p] - hi) + a_hi * _P10_LO[p] + a_lo * _P10_HI[p]
          + a_lo * _P10_LO[p])
    # half the gap to the next double above and below, times 10^p
    bits = a.view(np.int64)
    half = ((bits & _EXPONENT) - (53 << 52)).view(np.float64) * ten
    half_below = (((bits - 1) & _EXPONENT) - (53 << 52)).view(np.float64) * ten
    x_int = hi.astype(np.int64)
    base = x_int // 100 * 100
    d = (x_int - base) + lo  # X - base, in [-8, 108)
    # per step, the multiples either side of X (rows: 100, 10, 1)
    floor = np.floor(d * _STEP_INVERSE) * _STEPS
    below = d - floor
    above = _STEPS - below
    in_below = below < half_below
    in_above = above < half
    near = ((np.abs(below - half_below) < EPS) | (np.abs(above - half) < EPS)
            | (np.abs(above - below) < EPS))
    hit = in_below | in_above
    nearest = floor + _STEPS * (in_above & ~(in_below & (below <= above)))
    # the first step with a multiple in the interval decides
    offset = np.where(hit[0], nearest[0], np.where(hit[1], nearest[1], nearest[2]))
    m = base + offset.astype(np.int64)
    # log10 can miss by one next to a power of ten, and X then lies outside
    # [1e16, 1e17), but only M matters; M in it puts p in [1, 20]
    ok = ((m >= 10 ** 16) & (m < 10 ** 17) & hit[2]
          & ~(near[0] | ~hit[0] & (near[1] | ~hit[1] & near[2])))
    return m, p, ok


# A canvas row is 40 bytes, five little-endian words: the sign, "0." and
# up to three zeros for |x| < 1, then the 17 digits of M, each followed
# by a slot for the point; the slot after the last digit holds the
# separator.  Digits past the last nonzero one are NUL.
WIDTH = 40
_FIRST = 6  # digit i at byte _FIRST + 2 i, its slot at the byte after
_MINUS, _POINT, _ZERO, _COMMA = b"-.0,"
_DIGITS = np.arange(17)


def _digit_words():
    """Four digits of each v < 10^4 in a word's even bytes; from 10^4 on,
    the same for v - 10^4 with trailing zeros NUL."""
    v = np.arange(10 ** 4, dtype=np.int16)
    d = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    trailing = np.logical_and.accumulate(d[:, ::-1] == 0, axis=1)[:, ::-1]
    words = np.zeros((2, 10 ** 4, 8), np.uint8)
    words[:, :, 0::2] = d + _ZERO
    words[1, :, 0::2] *= ~trailing
    return words.reshape(-1, 8).view("<u8").ravel()


def _lead_words():
    """Per decpt from -3 to 1: "0." and -decpt zeros after the sign."""
    words = np.zeros((5, 8), np.uint8)
    for k in range(4):
        words[k, 1:6 - k] = np.frombuffer(b"0.000"[:5 - k], np.uint8)
    return words.view("<u8").ravel()


_WORDS = _digit_words()
_LEADS = _lead_words()


def _canvas(x):
    """One NUL-padded row of WIDTH bytes per value of the 1-D array x,
    each ending in a comma."""
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    m, p, ok = _shortest(np.where(fast, a, 1.0))
    fast &= ok
    m = np.where(fast, m, 0)
    decpt = np.where(fast, 17 - p, 1)  # digits before the point; 1 for 0.0

    canvas = np.empty((n, WIDTH), np.uint8)
    words = canvas.view("<u8")
    # M in base 10^4 below a first digit; // and a product beat divmod
    high = m // 10 ** 8
    low = m - high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    limbs = []
    for part in (high, low):
        top = part // 10 ** 4
        limbs += [top, part - top * 10 ** 4]
    nul = np.full(n, 10 ** 4)  # all later limbs are zero
    for k in range(4, 0, -1):
        words[:, k] = _WORDS[limbs[k - 1] + nul]
        nul *= limbs[k - 1] == 0
    words[:, 0] = (_LEADS[np.clip(decpt, -3, 1) + 3]
                   | (np.signbit(x).astype(np.uint64) * _MINUS)
                   | ((first.astype(np.uint64) + _ZERO) << 48))
    canvas[:, -1] = _COMMA
    flat = canvas.reshape(-1)
    row = np.arange(0, n * WIDTH, WIDTH)
    # the point, after digit decpt - 1, or in "0." when decpt <= 0
    point = decpt >= 1
    flat[row[point] + (_FIRST - 1) + 2 * decpt[point]] = _POINT
    # zeros of the integer part and the one after the point, where trailing
    short = np.flatnonzero(flat[row + _FIRST + 2 * np.clip(decpt, 0, 16)] == 0)
    if short.size:
        canvas[short, _FIRST:WIDTH:2] |= (
            _ZERO * (_DIGITS <= decpt[short, None])).astype(np.uint8)

    slow = np.flatnonzero(~fast & (a != 0.0))
    if slow.size:  # repr is at most 24 bytes long
        text = b"".join(repr(v).encode().ljust(WIDTH - 1, b"\0")
                        for v in x[slow].tolist())
        canvas[slow, :WIDTH - 1] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH - 1)
    return canvas


def format_rows(values):
    """CSV text of each row of a 2-D float array: an iterator of bytes,
    one a row.

    The rows are formatted CHUNK values at a time as the iterator is
    read, so at most one chunk's text is held: a pooled simulate worker
    writes them to its part file as they come, and the parent then reads
    one row of each part at a time.
    """
    values = np.asarray(values, float)
    if values.ndim != 2:
        raise ConfigError(f"CSV rows need a 2-D array, got shape {values.shape}")
    return _rows(values)


def _rows(values):
    n_rows, n_cols = values.shape
    step = max(1, CHUNK // n_cols)
    for start in range(0, n_rows, step):
        block = values[start:start + step]
        canvas = _canvas(block.ravel()).reshape(len(block), -1)
        canvas[:, -1] = 0  # no separator after a row's last value
        yield from (row.tobytes().translate(None, b"\0") for row in canvas)
