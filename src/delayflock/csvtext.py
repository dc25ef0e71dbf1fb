"""The exact text of ``'%.17g' % x`` for arrays of floats, and CSV lines made of it.

``format17`` prints a block of floats at once into fixed-width byte cells, which
``join_cells`` joins into lines; the CSV writers in ``harness`` format every float
cell through them, at most ``BLOCK`` floats of whole rows at a time.  They live apart
from ``harness`` because, without a bytecode cache, compiling one larger module raises
a run's peak memory.
"""
from __future__ import annotations

import numpy as np

CELL = 24            # bytes of the longest %.17g text, '-2.2250738585072014e-308'
BLOCK = 1 << 12      # floats formatted at a time, whole rows of a table
# the four ASCII digits of 0..9999, one uint32 each, so a take of 4-digit groups is their text;
# built from four 10^4-byte digit grids, so that importing takes no 10^4 x 4 int64 temporary
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view("<u4").ravel()
# 10^p for p = 0..20, each exact, and Veltkamp's split of each into two 26-bit halves
_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the trailing zeros of each 4-digit group 0..9999, 4 for 0000
_ZEROS4 = np.zeros(10 ** 4, np.uint8)
_ZEROS4[::10], _ZEROS4[::100], _ZEROS4[::1000], _ZEROS4[0] = 1, 2, 3, 4


def _bytes(mask, fill=255) -> np.ndarray:
    """CELL-byte rows, fill where mask and NUL elsewhere, as a (3, rows) uint64 word table."""
    return np.where(mask, np.uint8(fill), np.uint8(0)).view("<u8").T.copy()


# A cell is three little-endian uint64 words.  The 17 digits of N sit in its bytes 7..23,
# after the "000" of the first 4-digit group in bytes 4..6.  By row k + 4 of each table,
# for k = -4..16, the integer digits (all 17 below k = 0) move right by _SHIFT bits, the
# fraction digits by 40, next to _FILL: the point, or "0." and the zeros before the digits
_B, _K = np.arange(CELL), np.arange(-4, 17)[:, None]
_INT = _bytes((_B >= 7) & ((_K < 0) | (_B <= _K + 7)))
_FRACTION = _bytes((_K >= 0) & (_B >= _K + 8))
_FILL = (_bytes((_K < 16) & (_B == np.where(_K < 0, 2, _K + 2)), ord("."))
         | _bytes((_K < 0) & (_B >= 1) & (_B <= 1 - _K) & (_B != 2), ord("0")))
_SHIFT = np.where(_K[:, 0] < 0, 8 * (5 + _K[:, 0]), 48).astype(np.uint64)
# for s = 0..16, the digits of a cell with its last s bytes masked to NUL
_KEEP = _bytes(_B < CELL - np.arange(17)[:, None])


def _shift_right(w: np.ndarray, bits) -> np.ndarray:
    """The (3, r) words w, each column one 192-bit number, shifted right by 0 < bits < 64,
    in place."""
    carry = w[1:] << (64 - bits)
    w >>= bits
    w[:2] |= carry
    return w


def format17(a) -> np.ndarray:
    """The bytes of ``'%.17g' % x`` for every x of ``a``, as ``a.shape + (CELL,)`` uint8
    cells, NUL where a cell has no text (the sign of a positive number, and the tail).

    A finite nonzero x with k = floor(log10|x|) in [-4, 16] prints in fixed notation
    from the 17-digit integer N = |x| 10^(16-k), rounded half to even.  Dekker's product
    gives |x| 10^(16-k) = y + e exactly, with y >= 10^16 > 2^53 a whole number, so
    N = int(y) + floor(e), rounded by the exact fraction e - floor(e), never summed in
    floats (where a carry past 2^53 is lost).  A zero is written as ``0`` or ``-0``;
    every other x (inf, nan, scientific notation, and an N off [10^16, 10^17) where
    log10 misjudged k) is printed by ``'%.17g'`` itself."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    x = np.abs(flat)
    k = np.floor(np.log10(np.maximum(x, 1e-5)))   # 0 falls back with |x| < 1e-4
    fixed = (k >= -4) & (k <= 16)
    # every x is carried through: one that '%.17g' prints as 1 + 2^-52 (k = 0, no 0 to strip)
    x = np.where(fixed, x, 1.0000000000000002)
    k = np.where(fixed, k, 0.0).astype(np.int64)
    p = 16 - k
    y = x * _POW10[p]
    xh = x * 134217729.0   # Veltkamp: x = xh + xl, 26 bits each
    xh -= xh - x
    xl = x - xh
    e = xh * _POW10_HI[p]   # Dekker: x 10^p = y + e exactly
    e -= y
    e += xh * _POW10_LO[p]
    e += xl * _POW10_HI[p]
    e += xl * _POW10_LO[p]
    del x, xh, xl, p
    n = y.astype(np.int64)
    del y
    n += (floor_e := np.floor(e)).astype(np.int64)
    e -= floor_e   # the fraction of x 10^p, exact
    n += (e > 0.5) | (e == 0.5) & (n & 1)
    del e, floor_e
    fixed &= (n >= 10 ** 16) & (n < 10 ** 17)
    # N's five 4-digit groups, each by floor division alone (numpy divides faster than it
    # takes a remainder) and read as its four ASCII digits, fill bytes 4..23 of a cell
    hi = n // 10 ** 8
    n -= hi * 10 ** 8
    g0 = hi // 10 ** 8
    hi -= g0 * 10 ** 8
    g1, g3 = hi // 10 ** 4, n // 10 ** 4
    groups = (g0, g1, hi - g1 * 10 ** 4, g3, n - g3 * 10 ** 4)
    del hi, n, g0, g1, g3
    digits = np.zeros((3, flat.size), "<u8")   # one row per word, for whole-row operations
    for j, g in enumerate(groups, 1):
        digits.view("<u4")[j // 2, j % 2::2] = _DIGITS4.take(g)
    zeros = _ZEROS4.take(groups[4])
    if (z := np.flatnonzero(zeros != 0)).size:
        # strip the trailing zeros of the fraction, and its point if none is left: the
        # zeros of N's last group, and past a 0000 group those of the group before it
        strip = zeros[z]
        for j, g in enumerate(groups[3:0:-1], 1):   # the first group is a nonzero digit
            if not (full := np.flatnonzero(strip == 4 * j)).size:
                break
            strip[full] += _ZEROS4.take(g[z[full]])
        strip = np.minimum(strip, 16 - k[z])
        digits[:, z] &= _KEEP.take(strip, axis=1)
        z = z[strip == 16 - k[z]]
    del groups, zeros, g
    k += 4
    fraction = digits & _FRACTION.take(k, axis=1)
    digits &= _INT.take(k, axis=1)
    words = _shift_right(digits, _SHIFT.take(k))
    words |= _shift_right(fraction, 40)
    words |= _FILL.take(k, axis=1)
    words[0] |= np.signbit(flat) * np.uint64(ord("-"))
    del digits, fraction
    cells = np.ascontiguousarray(words.T, "<u8").view(np.uint8)
    cells[z, k[z] - 2] = 0   # no fraction digit left, no point
    if not fixed.all():
        rest = np.flatnonzero(~fixed)
        # 0 and -0 are two constant cells; every other value is printed one by one
        zero, rest = rest[flat[rest] == 0.0], rest[flat[rest] != 0.0]
        signed = np.array([b"0", b"-0"], f"S{CELL}").view(np.uint8).reshape(2, CELL)
        cells[zero] = signed[np.signbit(flat[zero]).astype(np.intp)]
        cells[rest] = np.array(["%.17g" % v for v in flat[rest].tolist()],
                               dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)
    return cells.reshape(a.shape + (CELL,))


def join_cells(cells: np.ndarray, head: np.ndarray | None = None):
    """The texts of ``cells`` (m, ..., c, CELL), one for each of the m entries of the
    first axis in turn, one line per row of c cells: the ``head`` bytes (broadcast to
    (..., h)), if any, then the cells joined by commas and a newline, every NUL dropped."""
    h = 0 if head is None else head.shape[-1]
    buf = np.empty(cells.shape[:-2] + (h + cells.shape[-2] * (CELL + 1),), np.uint8)
    if head is not None:
        buf[..., :h] = head
    body = buf[..., h:].reshape(cells.shape[:-1] + (CELL + 1,))
    body[..., :CELL] = cells
    body[..., CELL] = ord(",")
    body[..., -1, CELL] = ord("\n")
    return (text.tobytes().translate(None, b"\0") for text in buf)
