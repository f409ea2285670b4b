"""Python's repr of many floats at once, as rows of ASCII bytes.

repr(x) is the shortest decimal string that reads back as x, and of
those the nearest to x, laid out positionally when the decimal point
sits between -3 and 16 places (-4 < decpt <= 16) and in exponent form
otherwise.  CPython finds its digits with Gay's correctly rounded
conversion, which for 17-digit doubles falls back to bignum arithmetic
(D. M. Gay, AT&T Numerical Analysis Manuscript 90-10, 1990).  Here the
same digits are certified without bignums, in the spirit of Ryu
(U. Adams, PLDI 2018), in whole-array NumPy operations:

* |x| is scaled by 10^(16 - k), k = floor(log10|x|), as a double-double:
  Dekker's product against a hi/lo table of powers of ten built from
  exact integers.  This gives the 17-digit integer D and the fraction f
  of S = |x| 10^(16 - k) to about 1e-14.
* The decimals that read back as x are those strictly inside x's
  rounding interval, S -+ H with H half an ulp scaled the same way
  (0.55 < H < 11.2).  The shortest form keeps 17 - m digits for the
  largest m whose nearest multiple of 10^m lies inside; success is
  monotone in m, and m = 0 always succeeds.  Since 2H < 100, at most one
  multiple of 100 lies inside: when the nearest multiple of 100 does,
  m is its count of trailing zeros; otherwise m is 1 when the nearest
  multiple of 10 lies inside, else 0.  So three candidates settle every
  lane.
* A lane is certified only when x is finite, normal and not a power of
  two (whose interval is lopsided), 1e-279 <= |x| < 1e279 (inside the
  table's range), D has 17 digits, and no comparison that decides it
  lies within MARGIN of a tie.  The other lanes (0.0, -0.0, inf, NaN of
  any payload, subnormals, powers of two and ties) take repr itself.

The text is built from the digits by lookup in a table of 4-digit
groups, with the decimal point at a fixed byte of each row, and a row's
text is cut out of it at a per-lane start.
"""

from __future__ import annotations

import functools

import numpy as np

from .potential import _split, _two_product

# the table holds 10^(16 - k) for |k| <= K_LIM, whose low parts are
# normal doubles; certified magnitudes keep a decade inside it
K_LIM = 280
LOWEST, HIGHEST = 1e-279, 1e279
# The scaled value and the interval's half-width are computed to about
# 1e-14 in units of the last of 17 digits; a decision closer to a tie
# than this goes to repr.
MARGIN = 1e-9
LONGEST = 24  # characters in the longest repr of a double

_POINT = 20  # byte of the decimal point in a row of the layout
_ROW = 48    # bytes per row of the layout: 12 groups of 4
# bytes from a text's start to the end of its row, at the least
ROOM = _ROW - _POINT + 1
_DOT3 = 10000  # group table offsets: ".ddd" entries, then "d000" entries
_ONE = 11000
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _tables():
    """The powers of ten 10^q, q = 16 - K_LIM .. 16 + K_LIM, as hi, lo
    and hi's Dekker halves; and the groups as uint32 words of 4 ASCII
    bytes: "0000".."9999", ".000"..".999" and "0000".."9000".  Built on
    first use, from exact integers (int / int is correctly rounded)."""
    hi, lo = [], []
    for q in range(16 - K_LIM, 17 + K_LIM):
        if q >= 0:
            h = float(10 ** q)
            hi.append(h)
            lo.append(float(10 ** q - int(h)))
        else:
            d = 10 ** -q
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    hi = np.array(hi)
    groups = np.arange(10000)
    digits = np.stack([groups // 1000, groups // 100 % 10, groups // 10 % 10,
                       groups % 10], axis=1).astype(np.uint8) + ord("0")
    dot3 = digits[:1000].copy()
    dot3[:, 0] = ord(".")
    one = digits[:10, [3, 0, 0, 0]]
    words = np.concatenate((digits, dot3, one)).view(np.uint32).ravel()
    return hi, np.array(lo), _split(hi), words


def _scaled(values):
    """(D, f, H, k, certified): S = |x| 10^(16 - k) = D + f with D an
    integer, and H half an ulp of x on the same scale; lanes that cannot
    be certified compute 1.5 in place of x."""
    p_hi, p_lo, p_split, _ = _tables()
    mag = values.view(np.int64) & 0x7FFFFFFFFFFFFFFF
    a = mag.view(np.float64)
    certified = (a >= LOWEST) & (a < HIGHEST) & (
        (mag & 0xFFFFFFFFFFFFF) != 0)
    a = np.where(certified, a, 1.5)
    k = np.floor(np.log10(a)).astype(np.intp)
    row = K_LIM - k
    ph = p_hi.take(row)
    p, t = _two_product(a, ph, (p_split[0].take(row), p_split[1].take(row)))
    t += a * p_lo.take(row)
    whole = np.floor(t)
    D = p.astype(np.int64) + whole.astype(np.int64)
    # half an ulp: x's leading power of two over 2^53
    H = (a.view(np.int64) & 0x7FF0000000000000).view(np.float64) * ph
    H *= 2.0 ** -53
    return D, t - whole, H, k, certified


def _certified_digits(values):
    """(N, nd, decpt, certified) per lane: repr's digits are the first nd
    of the 17-digit integer N, and its value is 0.digits * 10^decpt.
    Only certified lanes carry meaning."""
    D, f, H, k, certified = _scaled(values)
    r2 = D % 100
    r1 = r2 % 10
    below2 = r2 + f   # S less the multiple of 100 below it (f may be 1.0)
    below1 = r1 + f
    near2 = np.minimum(below2, 100.0 - below2)
    near1 = np.minimum(below1, 10.0 - below1)
    in2 = near2 < H
    in1 = near1 < H
    # the decisions: where the interval's edges fall, and which of two
    # multiples of 10 (when none of 100 is inside) or of 1 (when none of
    # 10 is) is nearer
    tie = np.minimum(np.abs(near2 - H), np.abs(near1 - H))
    certified &= (tie > MARGIN) & (D >= 10 ** 16) & (D < 10 ** 17)
    certified &= in2 | (np.abs(below1 - 5.0) > MARGIN)
    certified &= in1 | (np.abs(f - 0.5) > MARGIN)
    # the nearest multiple of 100, 10 or 1 that lies inside
    r = np.where(in2, r2, np.where(in1, r1, 0))
    step = np.where(in2, 100, np.where(in1, 10, 1))
    N = D - r + step * (r + f > step / 2)
    nd = 17 - in1
    decpt = k + 1
    at = np.flatnonzero(in2)
    if len(at):
        # a multiple of 100 inside is the only one: keep its digits up to
        # its trailing zeros; 99..9 may round up to 10^17
        M = N[at]
        carry = M == 10 ** 17
        M[carry] = 10 ** 16
        N[at] = M
        decpt[at] += carry
        nd[at] = 15 - (M[:, None] % _POW10[3:17] == 0).sum(axis=1)
    return N, nd, decpt, certified


def _groups4(x, out):
    """The four 4-digit groups of 0 <= x < 10^16 as text words, into
    out[:, 0:4]."""
    words = _tables()[3]
    hi = x // 10 ** 8
    lo = x - hi * 10 ** 8
    for j, part in enumerate((hi, lo)):
        top = part // 10 ** 4
        words.take(top, out=out[:, 2 * j], mode="clip")
        words.take(part - top * 10 ** 4, out=out[:, 2 * j + 1], mode="clip")


def repr_text(values):
    """(text, starts, lengths, certified) for a float64 array: text is a
    uint8 array, and text[starts[i]:starts[i] + lengths[i]] is the ASCII
    of repr(float(values[i])), followed by at least ROOM - lengths[i]
    bytes that belong to no other value.  certified marks the lanes the
    digit kernel settled; repr formatted the others."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    N, nd, decpt, certified = _certified_digits(values)
    exponent = (decpt < -3) | (decpt > 16)
    dp = np.where(exponent, 1, decpt)  # exponent form: d.ddd
    # the integer part, and the fraction as a 20-digit field in a
    # 3-digit head and a 17-digit rest (0.000ddd at decpt = -3)
    P = _POW10.take(np.minimum(17 - dp, 18))
    ip = N // P
    frac = N - ip * P
    P = _POW10.take(np.maximum(14 - dp, 0))
    head = frac // P
    rest = (frac - head * P) * _POW10.take(np.minimum(3 + dp, 17))
    head *= _POW10.take(np.maximum(dp - 14, 0))
    mid = rest // 10
    # a row of 12 words of 4 bytes: pad, the integer part in 16 digits,
    # ".ddd" (the point at byte _POINT), 16 digits, "d000", pad
    words = _tables()[3]
    rows = np.empty((n, _ROW // 4), np.uint32)
    rows[:, [0, 11]] = words[0]
    _groups4(ip, rows[:, 1:5])
    words.take(head + _DOT3, out=rows[:, 5], mode="clip")
    _groups4(mid, rows[:, 6:10])
    words.take(rest - mid * 10 + _ONE, out=rows[:, 10], mode="clip")
    rows = rows.view(np.uint8)
    start = _POINT - np.maximum(dp, 1)
    lengths = _POINT + 1 + np.maximum(nd - dp, 1) - start
    at = np.flatnonzero(exponent)
    if len(at):
        e = decpt[at] - 1
        digits = nd[at]
        ae = np.abs(e)
        three = ae >= 100
        suffix = np.empty((len(at), 5), np.uint8)
        suffix[:, 0] = ord("e")
        suffix[:, 1] = np.where(e < 0, ord("-"), ord("+"))
        suffix[:, 2:] = np.stack([ae // 100, ae // 10 % 10, ae % 10],
                                 axis=1) + ord("0")
        suffix[~three, 2:4] = suffix[~three, 3:5]  # two digits: e-05
        # after the fraction; over the point when there is no fraction
        col = _POINT + (digits > 1) * digits
        rows[at[:, None], col[:, None] + np.arange(5)] = suffix
        lengths[at] = col - start[at] + 4 + three
    negative = np.flatnonzero(values < 0)
    start[negative] -= 1
    rows[negative, start[negative]] = ord("-")
    lengths[negative] += 1
    for i in np.flatnonzero(~certified).tolist():
        text = repr(values[i].item()).encode()
        rows[i, start[i]:start[i] + len(text)] = np.frombuffer(text, np.uint8)
        lengths[i] = len(text)
    start += np.arange(0, n * _ROW, _ROW)
    return rows.reshape(-1), start, lengths, certified
