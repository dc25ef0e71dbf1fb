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
                    axis=-1).view(np.uint32).ravel()
# 10^p for p = 0..20, each exact, and Veltkamp's split of each into two 26-bit halves
_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def format17(a) -> np.ndarray:
    """The bytes of ``'%.17g' % x`` for every x of ``a``, as ``a.shape + (CELL,)`` uint8
    cells, NUL where a cell has no text (the sign of a positive number, and the tail).

    A finite nonzero x with k = floor(log10|x|) in [-4, 16] prints in fixed notation
    from the 17-digit integer N = |x| 10^(16-k), rounded half to even.  Dekker's product
    gives |x| 10^(16-k) = y + e exactly, with y >= 10^16 > 2^53 a whole number, so
    N = int(y) + floor(e), rounded by the exact fraction e - floor(e), never summed in
    floats (where a carry past 2^53 is lost).  Every other x (0, inf, nan,
    scientific notation, and an N off [10^16, 10^17) where log10 misjudged k) is
    printed by ``'%.17g'`` itself."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    k = np.floor(np.log10(np.maximum(np.abs(flat), 1e-5)))   # 0 falls back with |x| < 1e-4
    idx = np.flatnonzero((k >= -4) & (k <= 16))
    idx = idx[np.argsort(k[idx].astype(np.int8), kind="stable")]   # one slice per k below
    k = k[idx].astype(np.int64)
    # in place where it can be, to hold few arrays of the block at once
    x = np.abs(flat[idx])
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
    n += (e > 0.5) | (e == 0.5) & (n % 2 == 1)
    del e, floor_e
    if not (ok := (n >= 10 ** 16) & (n < 10 ** 17)).all():
        idx, k, n = idx[ok], k[ok], n[ok]
    # N's 17 digits are bytes 3..19 of its five 4-digit groups, the first "000" + a digit
    digits = np.empty((n.size, 5), np.uint32)
    hi = n // 10 ** 8
    n -= hi * 10 ** 8
    digits[:, 0] = _DIGITS4[hi // 10 ** 8]
    digits[:, 1] = _DIGITS4[hi // 10 ** 4 % 10 ** 4]
    digits[:, 2] = _DIGITS4[hi % 10 ** 4]
    digits[:, 3] = _DIGITS4[n // 10 ** 4]
    z = np.flatnonzero(n % 10 == 0)
    digits[:, 4] = _DIGITS4[n % 10 ** 4]
    del hi, n
    digits = digits.view(np.uint8)
    point = np.full(k.size, ord("."), np.uint8)
    if z.size:   # strip the trailing zeros of the fraction, and its point if none is left
        zeros = np.argmax(digits[z, :2:-1] != ord("0"), axis=1)
        fraction = 16 - k[z]
        strip = np.minimum(zeros, fraction)
        digits[z] *= np.arange(20) < 20 - strip[:, None]
        point[z[strip == fraction]] = 0
    text = np.zeros((k.size, CELL), np.uint8)
    text[:, 0] = np.signbit(flat[idx]) * ord("-")
    ends = np.searchsorted(k, np.arange(-4, 18)).tolist()
    for q, start, stop in zip(range(-4, 17), ends, ends[1:]):
        if start == stop:
            continue
        rows = slice(start, stop)
        if q >= 0:   # q + 1 integer digits, then the point and 16 - q fraction digits
            text[rows, 1:q + 2] = digits[rows, 3:q + 4]
            if q < 16:
                text[rows, q + 2] = point[rows]
                text[rows, q + 3:19] = digits[rows, q + 4:]
        else:        # "0." and -q - 1 zeros before the 17 digits
            text[rows, 1:2 - q] = np.frombuffer(b"0.000", np.uint8)[:1 - q]
            text[rows, 2 - q:19 - q] = digits[rows, 3:]
    del digits
    cells = np.zeros((flat.size, CELL), np.uint8)
    cells.view(f"V{CELL}")[idx] = text.view(f"V{CELL}")
    if idx.size < flat.size:
        rest = np.ones(flat.size, bool)
        rest[idx] = False
        rest = np.flatnonzero(rest)
        cells[rest] = np.array(["%.17g" % v for v in flat[rest].tolist()],
                               dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)
    return cells.reshape(a.shape + (CELL,))


def join_cells(cells: np.ndarray, head: np.ndarray | None = None) -> bytes:
    """The text of ``cells`` (..., c, CELL), one line per row of c cells: the ``head``
    bytes (broadcast to (..., h)), if any, then the cells joined by commas and a newline,
    every NUL dropped."""
    h = 0 if head is None else head.shape[-1]
    buf = np.empty(cells.shape[:-2] + (h + cells.shape[-2] * (CELL + 1),), np.uint8)
    if head is not None:
        buf[..., :h] = head
    body = buf[..., h:].reshape(cells.shape[:-1] + (CELL + 1,))
    body[..., :CELL] = cells
    body[..., CELL] = ord(",")
    body[..., -1, CELL] = ord("\n")
    return buf.tobytes().translate(None, b"\0")
