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
value below 1; 6 the first digit; 7 the point of a scientific value or
of one in [1, 10); 8-23 the other 16 digits, four 4-digit groups; 24-28
the exponent of a scientific value; 29-31 NUL.  A fixed-point value of
10 or more has its point further on: its digits in front of the point
close up on the first, into byte 7, and the point follows them.

A pass computes in a fixed set of work arrays, updated in place, with
integer intermediates as narrow as they go: the exponent and the digit
groups int16, N's two 8-digit halves int32, trailing-zero counts uint8.
What only some values need (an exponent off by one, a tie or an unsure
rounding, the carry to 10^17, trailing zeros beyond the last group, a
fixed-point value of 10 or more, the values outside the range) is done
on their indices alone.
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
# values per pass: each float64 work array stays at 96 KiB, and a 41 x 41
# scan table with its overlay takes one (a 101 x 101 table takes a few)
_CHUNK = 12288
_MINUS = ord("-")
_ZERO = ord("0") << 48  # "0" at byte 6


class _Tables(NamedTuple):
    # by exponent E, index E + _E0
    scale: np.ndarray  # (4, _) 10^(16-E) = hi + lo to ~2^-106; hi's Dekker halves
    lead: np.ndarray  # word 0 but sign and digit: "0.000" prefix, or the point
    tail: np.ndarray  # word 3: "e+XX" of a scientific value
    # by digits
    first: np.ndarray  # word 0 of first digit d: ASCII at byte 6
    four: np.ndarray  # 0..9999 as 4 ASCII digits in bytes 0-3 of a word
    last: np.ndarray  # the same in bytes 4-7, trailing zeros NUL: the last group
    zeros: np.ndarray  # trailing zeros of a 4-digit group, 4 for 0000
    keep: np.ndarray  # (3, s) masks of words 0-2 showing s digits
    # words 1-2 of a fixed-point value of 10 or more, q digits in front of
    # its point (see `_fixed`)
    moved: np.ndarray  # (2, q) digits 1..q-1, one byte down
    after: np.ndarray  # (2, q) the digits after the point, in place
    point: np.ndarray  # (2, q) the point


def _split(a):
    high = a * _SPLIT
    high -= high - a
    return high, a - high


def _words(data: np.ndarray) -> np.ndarray:
    """Bytes (n, 8 m) as m rows of n native uint64 words, little-endian;
    one row alone when m is 1."""
    words = np.ascontiguousarray(data).view("<u8").astype(np.uint64).T.copy()
    return words[0] if len(words) == 1 else words


@functools.cache
def _tables() -> _Tables:
    """Built on first use, in a few milliseconds."""
    hi, lo = [], []
    for e in range(-_E0, _E0):
        k = min(16 - e, 300)  # k above 300 only for E < -284: never read
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
    hi = np.array(hi)
    scale = np.array([hi, *_split(hi), lo])
    e = np.arange(-_E0, _E0)
    lead = np.zeros((e.size, 8), np.uint8)
    for small in range(-4, 0):
        prefix = b"0." + b"0" * (-small - 1)
        lead[small + _E0, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
    lead[(e < -4) | (e == 0) | (e >= 17), 7] = ord(".")
    tail = np.zeros((e.size, 8), np.uint8)
    mag = np.abs(e)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2] = np.where(mag >= 100, mag // 100 + ord("0"), 0)
    tail[:, 3] = mag // 10 % 10 + ord("0")
    tail[:, 4] = mag % 10 + ord("0")
    tail[(e >= -4) & (e < 17)] = 0
    first = (np.arange(10, dtype=np.uint64) + ord("0")) << np.uint64(48)
    v = np.arange(10000)
    group = np.zeros((10000, 4), np.uint8)
    for i in range(4):
        group[:, 3 - i] = v // 10 ** i % 10 + ord("0")
    zeros = sum((v % 10 ** i == 0).astype(np.uint8) for i in range(1, 5))
    bare = np.where(np.arange(4) < 4 - zeros[:, None], group, 0)
    four, last = (_words(np.pad(g, ((0, 0), (i, 4 - i)))) for g, i in ((group, 0), (bare, 4)))
    # s digits shown: the point goes with the 16 digits after the first
    s = np.arange(18)[:, None]
    j = np.arange(24)[None, :]
    keep = np.where((j != 7) | (s > 1), 0xFF, 0).astype(np.uint8)
    keep[:, 8:] *= (j[:, 8:] - 7 < s).astype(np.uint8)
    # a fixed-point value of 10 or more: its digits 1..q-1 one byte down,
    # into the point's slot, bytes 8-23 (words 1-2)
    q = np.arange(18)[:, None]
    b = np.arange(8, 24)
    moved, after = (np.where(mask, 0xFF, 0).astype(np.uint8)
                    for mask in (b <= 5 + q, b >= 7 + q))
    point = np.where(b == 6 + q, ord("."), 0).astype(np.uint8)
    return _Tables(scale, _words(lead), _words(tail), first, four, last,
                   zeros, _words(keep), _words(moved), _words(after), _words(point))


def _scaled(a, ie, t, out):
    """a 10^(16-E) as the unevaluated sum out[0] + out[1], for E + _E0 in
    ie; out's other three rows are work space."""
    yh, yl, u, v, w = out
    np.take(t.scale[0], ie, out=w, mode="clip")
    np.multiply(a, w, out=yh)
    # a * 10^k - yh, exactly: ((ah bh - yh) + al bh + ah bl) + al bl
    np.multiply(a, _SPLIT, out=u)
    np.subtract(u, a, out=v)
    u -= v  # ah
    np.subtract(a, u, out=v)  # al
    np.take(t.scale[1], ie, out=w, mode="clip")  # bh
    np.multiply(u, w, out=yl)
    yl -= yh
    w *= v
    yl += w
    np.take(t.scale[2], ie, out=w, mode="clip")  # bl
    u *= w
    yl += u
    v *= w
    yl += v
    np.take(t.scale[3], ie, out=w, mode="clip")  # lo
    w *= a
    yl += w


def _digits(n, halves, groups, work):
    """N's first digit, and its other 16 as four 4-digit groups written to
    `groups`, from the int64 n (consumed); `halves` (int32, twice n's
    size) and the int64 `work` are work space.  Each product and
    quotient keeps its operand's dtype, and only copies narrow it."""
    high, low = halves.reshape(2, -1)  # digits 0-8 and 9-16
    np.floor_divide(n, 10 ** 8, out=work)
    np.copyto(high, work, casting="same_kind")
    work *= 10 ** 8
    n -= work
    np.copyto(low, n, casting="same_kind")
    part = work.view(np.int32)[:n.size]
    first = np.empty(n.size, np.int16)
    for half, scale, out in ((high, 10 ** 8, (first, high)),
                             (high, 10 ** 4, groups[:2]), (low, 10 ** 4, groups[2:])):
        np.floor_divide(half, scale, out=part)
        np.copyto(out[0], part, casting="same_kind")
        part *= scale
        half -= part
        np.copyto(out[1], half, casting="same_kind")
    return first


def _shown(groups, t):
    """Significant digits of N once trailing zeros go, from its last 16
    digits as four 4-digit groups (its first digit is never 0)."""
    tz = np.zeros(groups.shape[1], np.uint8)
    for g in groups:  # first to last: a nonzero group resets the count
        tz *= g == 0
        tz += t.zeros.take(g)
    return 17 - tz


def _fixed(words, rows, e, groups, t):
    """Words 0-2 of the fixed-point values with 1 <= E <= 16 among `rows`:
    their E + 1 digits in front of the point close up on the first, and
    the point follows them when digits, shown as laid out, do."""
    q = e + 1
    w0, w1, w2 = (word[rows] for word in words[:3])
    whole1, whole2 = (t.four.take(g) | t.four.take(h) << 32 for g, h in (groups[:2], groups[2:]))
    w0 |= whole1 << 56
    w1 &= t.after[0].take(q)
    w2 &= t.after[1].take(q)
    shown = (w1 | w2) != 0
    words[0][rows] = w0
    words[1][rows] = (whole1 >> 8 | whole2 << 56) & t.moved[0].take(q) | w1 | (
        t.point[0].take(q) * shown)
    words[2][rows] = (whole2 >> 8) & t.moved[1].take(q) | w2 | t.point[1].take(q) * shown


def _fill(x, cells, work):
    """Write the cells of the float64 values x, computing in the (6, n)
    float64 `work`, n >= x.size."""
    t = _tables()
    m = x.size
    # six float64 rows, later reused under other dtypes: v holds N, w its
    # halves, a its digit groups, u integer scratch, and yh..v the words
    work = work[:, :m]
    yh, yl, u, v, w, a = work
    ie = np.empty(m, np.int16)  # E + _E0

    # values outside the range are scaled as pi, which takes none of the
    # rarer paths below, and their cells are mended last
    np.abs(x, out=a)
    inside = a >= _LOWEST
    inside &= a <= _HIGHEST
    outside = np.flatnonzero(~inside)
    a[outside] = np.pi
    np.log10(a, out=u)
    np.floor(u, out=u)
    u += _E0
    np.copyto(ie, u, casting="unsafe")
    _scaled(a, ie, t, work[:5])

    # E off by one: y outside (1e16, 1e17), or on an end
    np.subtract(yh, 5.5e16, out=u)
    np.abs(u, out=u)
    edge = np.flatnonzero(u >= 4.5e16)
    if edge.size:
        yhe, yle, iee = yh[edge], yl[edge], ie[edge]
        iee += (yhe > 1e17) | ((yhe == 1e17) & (yle >= 0))
        iee -= (yhe < 1e16) | ((yhe == 1e16) & (yle < 0))
        ie[edge] = iee
        redo = np.empty((5, edge.size))
        _scaled(a[edge], iee, t, redo)
        yh[edge], yl[edge] = redo[:2]

    # N = yh + rint(yl): yh is an even integer (yh >= 2^53), so rint's
    # half to even on yl is half to even on N
    n = v.view(np.int64)
    np.copyto(n, yh, casting="unsafe")
    np.rint(yl, out=u)
    step = w.view(np.int64)
    np.copyto(step, u, casting="unsafe")
    n += step
    yl -= u
    np.abs(yl, out=yl)
    near = np.flatnonzero(yl > 0.5 - _MARGIN)  # a tie, or close to one,
    unsure = near[t.scale[3].take(ie[near]) != 0]  # and the product not exact
    if edge.size:
        carry = edge[n[edge] == 10 ** 17]
        n[carry] = 10 ** 16
        ie[carry] += 1
    groups = a.view(np.int16).reshape(4, m)
    first = _digits(n, w.view(np.int32), groups, u.view(np.int64))

    words = work[:4].view(np.uint64)
    w0, w1, w2, w3 = words
    spare = w.view(np.uint64)
    np.take(t.lead, ie, out=w0, mode="clip")
    np.take(t.first, first, out=spare, mode="clip")
    w0 |= spare
    np.right_shift(x.view(np.uint64), 63, out=spare)
    spare *= _MINUS
    w0 |= spare
    np.take(t.four, groups[1], out=w1, mode="clip")
    w1 <<= 32
    np.take(t.four, groups[0], out=spare, mode="clip")
    w1 |= spare
    np.take(t.four, groups[2], out=w2, mode="clip")
    np.take(t.last, groups[3], out=spare, mode="clip")
    w2 |= spare
    np.take(t.tail, ie, out=w3, mode="clip")

    short = np.flatnonzero(groups[3] == 0)  # fewer digits, maybe no point
    if short.size:
        s = _shown(groups.take(short, axis=1), t)
        for word, mask in zip(words, t.keep):
            word[short] &= mask.take(s)
    wide = np.flatnonzero((ie - (_E0 + 1)).view(np.uint16) < 16)  # 1 <= E <= 16
    if wide.size:
        _fixed(words, wide, ie[wide] - _E0, groups.take(wide, axis=1), t)
    if outside.size:  # NaN all NUL, zeros "0" and "-0", the rest to Python
        y = x[outside]
        zero = y == 0
        for word in words:
            word[outside] = 0
        w0[outside[zero]] = (y[zero].view(np.uint64) >> np.uint64(63)) * np.uint64(
            _MINUS) | np.uint64(_ZERO)
        unsure = np.concatenate([outside[~zero & (y == y)], unsure])
    for j, word in enumerate(words):
        cells[:, j] = word
    text = cells.view(np.uint8)
    for i in unsure.tolist():
        b = ("%.17g" % x[i]).encode()
        text[i] = 0
        text[i, :len(b)] = np.frombuffer(b, np.uint8)


def g17(values) -> np.ndarray:
    """(n, WORDS) '<u8' cells: cell i holds the ASCII of '%.17g' %
    values[i] with NULs at fixed places; a NaN's cell is all NUL.  The
    cells are a view of a block that also held the work arrays."""
    x = np.asarray(values, dtype=np.float64).ravel()
    # the cells and the work arrays of every pass in one allocation, freed
    # with the cells: apart, the work arrays left a hole in the heap, and a
    # compare command's peak RSS was 0.5-0.8 MB higher
    n, per_pass = x.size * WORDS, min(x.size, _CHUNK)
    block = np.empty(n + 6 * per_pass, "<u8")
    cells = block[:n].reshape(x.size, WORDS)
    work = block[n:].view(np.float64).reshape(6, per_pass)
    for start in range(0, x.size, _CHUNK):
        _fill(x[start:start + _CHUNK], cells[start:start + _CHUNK], work)
    return cells
