"""`'%.17g' % v` for a whole float64 array at once, byte for byte.

`g17(values)` gives each value a 32-byte cell, four little-endian uint64
words that hold its text with NUL bytes at fixed places; dropping the
NULs leaves exactly the bytes of `'%.17g' % v`.

The digits come from scaling |x| by 10^(16-E) in double-double
arithmetic (Dekker, Numer. Math. 18, 224 (1971)), with E = floor(log10
|x|) corrected once from the result, so that the scaled value y lies in
[1e16, 1e17) and its nearest integer N holds the 17 significant digits.
The error of y is below 1e-14, against the half-unit that decides the
rounding.  Where 10^(16-E) is a double (0 <= 16-E <= 22) the product is
exact, and an exact tie rounds half to even, as Python does.  A value
whose rounding is not certain, and every nonzero value outside
[1e-280, 1e290] in magnitude (subnormals, infinities), is formatted by
Python's `%` instead, which stays the reference.

A cell's bytes: 0 the sign; 1-5 the "0.000" in front of a fixed-point
value below 1e-4; 6-23 the digits, with the point after the first q of
them; 24-28 the exponent of a scientific value; 29-31 NUL.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

WORDS = 4  # uint64 words in a cell

_LOWEST, _HIGHEST = 1e-280, 1e290  # no overflow or underflow inside
_E0 = 300  # table index of exponent 0; E stays within (-300, 300)
_MARGIN = 2.0 ** -40  # y this close to a half-unit is left to Python
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# values per pass: a 2048-row block of a scan table (five float columns
# and the grid keys) takes one, and each float64 temporary stays at 96 KiB
_CHUNK = 12288
_MINUS = np.uint64(ord("-"))
_ZERO = np.uint64(ord("0")) << np.uint64(48)  # "0" at byte 6


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^k = hi + lo to ~2^-106, index k + _E0
    lo: np.ndarray
    four: np.ndarray  # 0..9999 as a word of 4 ASCII digits
    zeros: np.ndarray  # trailing zeros of a 4-digit group, 4 for 0000
    head: np.ndarray  # word 0 of exponent E (index E + _E0): "0.000" prefix
    tail: np.ndarray  # word 3 of exponent E: "e+XX" of a scientific value
    stay: np.ndarray  # (3, code) words 0-2: the digits that keep their place
    move: np.ndarray  # (3, code): the digits one place on, behind the point
    point: np.ndarray  # (3, code): the point


def _words(data: np.ndarray) -> np.ndarray:
    """Bytes (..., 8 m) as (..., m) native uint64 words, little-endian."""
    return np.ascontiguousarray(data).view("<u8").astype(np.uint64)


@functools.cache
def _tables() -> _Tables:
    """Built on first use, in a few milliseconds."""
    hi, lo = [], []
    for k in range(-_E0, _E0):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            q = 10 ** -k
            h = 1 / q  # correctly rounded, like the int division below
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * q) / (den * q))
    v = np.arange(10000, dtype=np.uint16)
    group = np.zeros((10000, 8), np.uint8)
    for i in range(4):
        group[:, 3 - i] = v // 10 ** i % 10 + ord("0")
    zeros = sum((v % 10 ** i == 0).astype(np.uint8) for i in range(1, 5))
    # exponent words
    e = np.arange(-_E0, _E0)
    head = np.zeros((e.size, 8), np.uint8)
    for small in range(-4, 0):
        prefix = b"0." + b"0" * (-small - 1)
        head[small + _E0, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
    tail = np.zeros((e.size, 8), np.uint8)
    mag = np.abs(e)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2] = np.where(mag >= 100, mag // 100 + ord("0"), 0)
    tail[:, 3] = mag // 10 % 10 + ord("0")
    tail[:, 4] = mag % 10 + ord("0")
    tail[(e >= -4) & (e < 17)] = 0
    # layout code q * 18 + keep: the point after digit q (0: no point
    # among the digits), `keep` digits shown
    q = np.arange(18)[:, None, None]
    keep = np.arange(18)[None, :, None]
    j = np.arange(18)
    masks = np.zeros((3, 18, 18, 24), np.uint8)
    masks[0, ..., 6:] = ((q == 0) | (j < q)) & (j < keep)
    masks[1, ..., 6:] = (q > 0) & (j > q) & (j <= keep)
    masks[:2] *= 0xFF
    masks[2, ..., 6:] = ((q > 0) & (j == q)) * ord(".")
    layout = _words(masks.reshape(3, 18 * 18, 24)).transpose(0, 2, 1).copy()
    return _Tables(np.array(hi), np.array(lo), _words(group).ravel(), zeros,
                   _words(head).ravel(), _words(tail).ravel(), *layout)


def _split(a):
    high = a * _SPLIT
    high -= high - a
    return high, a - high


def _scaled(a, k, t):
    """a * 10^k as an unevaluated sum yh + yl, and whether it is exact."""
    ph, pl = t.hi[k + _E0], t.lo[k + _E0]
    yh = a * ph
    ah, al = _split(a)
    bh, bl = _split(ph)
    # a * ph - yh, exactly: ((ah bh - yh) + ah bl + al bh) + al bl
    yl = ah * bh
    yl -= yh
    ah *= bl
    yl += ah
    bh *= al
    yl += bh
    al *= bl
    yl += al
    exact = pl == 0
    pl *= a
    yl += pl
    return yh, yl, exact


def _round17(a, t):
    """N in [1e16, 1e17) and E with |x| ~ N 10^(E-16), and the values
    whose rounding is not certain, for |x| in [_LOWEST, _HIGHEST]."""
    e = np.floor(np.log10(a)).astype(np.int64)
    yh, yl, exact = _scaled(a, 16 - e, t)
    up = (yh > 1e17) | ((yh == 1e17) & (yl >= 0))
    down = (yh < 1e16) | ((yh == 1e16) & (yl < 0))
    fix = np.flatnonzero(up | down)
    if fix.size:
        e[fix] += up[fix]
        e[fix] -= down[fix]
        yh[fix], yl[fix], exact[fix] = _scaled(a[fix], 16 - e[fix], t)
    floor = np.floor(yl)
    yl -= floor  # the fraction
    n = yh.astype(np.int64)  # an even integer: yh >= 2^53
    n += floor.astype(np.int64)
    n += (yl > 0.5) | ((yl == 0.5) & exact & ((n & 1) == 1))  # half to even
    unsure = ~exact & (np.abs(yl - 0.5) < _MARGIN)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    return n, e, unsure


def _digit_words(n, t):
    """Words 0-2 of N's 17 digits at bytes 6-22 (u), words 1-2 of the same
    one byte later (v), and the number of digits once trailing zeros go.
    Consumes n."""
    top = n // 10 ** 9  # d0-d7
    n -= top * 10 ** 9
    d8 = n // 10 ** 8
    n -= d8 * 10 ** 8
    gc = n // 10000  # d9-d12
    n -= gc * 10000  # d13-d16
    ga = top // 10000  # d0-d3
    top -= ga * 10000  # d4-d7
    tz = t.zeros[n]
    z = np.flatnonzero(n == 0)
    if z.size:
        tz[z] = np.where(gc[z] != 0, 4 + t.zeros[gc[z]],
                         np.where(d8[z] != 0, 8,
                                  np.where(top[z] != 0, 9 + t.zeros[top[z]],
                                           13 + t.zeros[ga[z]])))
    u0 = t.four[ga]
    u1 = u0 >> 16
    u0 &= 0xFFFF
    u0 <<= 48
    u1 |= t.four[top] << 16
    u1 |= (d8.astype(np.uint64) + ord("0")) << 48
    u2 = t.four[gc]
    u1 |= (u2 & 0xFF) << 56
    u2 >>= 8
    u2 |= t.four[n] << 24
    v1 = u1 << 8
    v1 |= u0 >> 56
    v2 = u2 << 8
    v2 |= u1 >> 56
    return (u0, u1, u2), (None, v1, v2), 17 - tz.astype(np.int64)


def _layout(e, s):
    """Layout code of each value: q * 18 + keep (see `_tables`)."""
    sci = (e < -4) | (e >= 17)
    q = np.where(sci, 1, e + 1)  # digits in front of the point
    keep = np.where(sci | (e < 0), s, np.maximum(s, q))
    q = np.where(s > q, np.maximum(q, 0), 0)
    return q * 18 + keep


def _fill(x, cells):
    """Write the cells of the float64 values x (cells start all NUL)."""
    t = _tables()
    a = np.abs(x)
    fast = (a >= _LOWEST) & (a <= _HIGHEST)
    rows = slice(None) if fast.all() else np.flatnonzero(fast)
    n, e, unsure = _round17(a[rows], t)
    u, v, s = _digit_words(n, t)
    code = _layout(e, s)
    e += _E0
    cells[rows, 0] = (np.signbit(x[rows]) * _MINUS) | t.head[e] | (
        u[0] & t.stay[0][code]) | t.point[0][code]
    for w in (1, 2):
        cells[rows, w] = (u[w] & t.stay[w][code]) | (v[w] & t.move[w][code]) | (
            t.point[w][code])
    cells[rows, 3] = t.tail[e]
    if isinstance(rows, slice):
        slow = np.flatnonzero(unsure)
    else:
        zero = np.flatnonzero(a == 0)
        cells[zero, 0] = (np.signbit(x[zero]) * _MINUS) | _ZERO
        slow = np.concatenate([np.flatnonzero(~fast & (a != 0) & ~np.isnan(x)),
                               rows[unsure]])
    text = cells.view(np.uint8)
    for i in slow.tolist():
        b = ("%.17g" % x[i]).encode()
        text[i] = 0
        text[i, :len(b)] = np.frombuffer(b, np.uint8)


def g17(values) -> np.ndarray:
    """(n, WORDS) '<u8' cells: cell i holds the ASCII of '%.17g' %
    values[i] with NULs at fixed places; a NaN's cell is all NUL."""
    x = np.asarray(values, dtype=np.float64).ravel()
    cells = np.zeros((x.size, WORDS), "<u8")
    for start in range(0, x.size, _CHUNK):
        _fill(x[start:start + _CHUNK], cells[start:start + _CHUNK])
    return cells
