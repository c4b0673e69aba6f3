"""Decimal text of numpy arrays, vectorized: floats exactly as ``repr``
or as ``format(x, ".17g")`` with ``.0`` on integral values, integers and
bools as JSON writes them.

Each value becomes one row of a uint8 array: its text, padded with NUL
bytes to the width of its kind.  The caller lays fields and literal text
side by side and drops the NULs.

Floats.  For |x| in (1e-280, 1e280), ``y = |x| * 10**s`` with ``s``
chosen so that ``10**16 <= y < 2 * 10**17`` is computed as a double-double:
a Dekker product of |x| with the double nearest ``10**s``, plus |x| times
the double nearest the rest of ``10**s``.  For ``0 <= s <= 22`` that rest
is 0 and the product is exact; otherwise it is off by at most about
``y * 2**-104``, under ``2**-46``.  ``y`` is held as an integer ``D`` plus
``rho`` in [-0.5, 0.5].

* ``%.17g`` rounds ``y`` to 17 digits (half to even).
* ``repr`` picks the shortest decimal inside x's rounding interval, as
  David Gay's shortest mode does: the interval reaches half a gap to each
  neighbour of x (half of the smaller gap below a power of two), and its
  ends count only for an even significand.  Take ``P``, the largest power
  of ten up to 1000 with a multiple inside the interval (the interval is
  at most 44 wide, so a multiple of a larger power inside is that same
  number); of the two multiples of ``P`` next to ``y`` the nearer one
  inside wins (at an exact tie, the even one), and its trailing zeros are
  dropped.

Every decision compares two integers, or a double with 0 or 0.5.  Where
the product is exact, so are those doubles.  Where it is rounded, a value
whose decision lies within ``_MARGIN`` = 2**-30 of its threshold, far
above the rounding, goes to the caller's per-value function instead, as
do values outside (1e-280, 1e280), zeros among them, and non-finite ones.
So no digit depends on the margin being tight.

Tables do the per-value work that depends on few inputs.  Everything
that depends on x's binary exponent alone (``s``, the split ``10**s``,
the scaled half gap, the exponent of the text) is read from tables
indexed by it.  ``P`` comes from a table over the interval's low end mod
1000 and its width, and ``D mod P`` from one over ``D`` mod 1000.  The
halved gap below a power of two is computed only for those values,
usually none.  The text is gathered from a 32-byte row per value (its
digits, exponent, sign and the characters ``0.e``) through one layout per
exponent, digit count and digit offset.  The gather index is intp: np.take
would copy a narrower one to intp first.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

FLOAT_WIDTH = 24  # a sign, then at most 23 characters: -1.2345678901234567e-308
BOOL_WIDTH = 5

_MARGIN = 2.0**-30
_TINY, _HUGE = 1e-280, 1e280
_S_MIN, _S_MAX = -265, 300  # 10**s for every |x| in (_TINY, _HUGE)
_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_FRACTION = np.uint64(0x000F_FFFF_FFFF_FFFF)
# |x| is inside (_TINY, _HUGE) when its bits less _INSIDE are below _WIDE
_INSIDE = np.float64(_TINY).view(np.uint64) + np.uint64(1)
_WIDE = np.float64(_HUGE).view(np.uint64) - _INSIDE
_STAND_IN = np.float64(1 / 3).view(np.uint64)
_P17 = 10**17


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**s for s in [_S_MIN, _S_MAX] as the nearest double plus the
    double nearest the rest, from exact integer arithmetic."""
    hi, lo = [], []
    for s in range(_S_MIN, 0):
        d = 10**-s
        h = 1 / d  # int / int rounds correctly
        num, den = h.as_integer_ratio()  # den is a power of two
        hi.append(h)
        lo.append(math.ldexp((den - num * d) / d, 1 - den.bit_length()))
    p = 1
    for s in range(_S_MAX + 1):
        h = float(p)  # as does int -> float
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    return np.array(hi), np.array(lo)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


# Per biased exponent E of |x|, so |x| is in [2**(E - 1023), 2**(E - 1022)).
# Exponents outside (_TINY, _HUGE) never reach these tables.
_E = np.clip(np.arange(2048, dtype=np.int64), int(_INSIDE) >> 52, int(_INSIDE + _WIDE) >> 52)
_S = 16 - (((_E - 1023) * 78913) >> 18)  # floor((E - 1023) * log10(2)) for |E - 1023| < 1650
_HI, _LO = (table[_S - _S_MIN] for table in _powers_of_ten())
_HH, _HL = _split(_HI)
_ROUNDED = _LO != 0  # the product is rounded, so its decisions keep a margin


def _half_gaps() -> tuple[np.ndarray, ...]:
    """Half the gap to x's neighbours, scaled like y, as an integer plus a
    double in [-0.5, 0.5]; then the same for the gap below a power of
    two, half as wide."""
    u = ((_E - 53) << 52).view(np.float64)  # half an ulp of x, a power of two
    hh, hl = u * _HI, u * _LO  # both exact
    gaps = []
    for scale in (1.0, 0.5):
        whole = np.rint(hh * scale)
        gaps += [whole.astype(np.int64), (hh * scale - whole) + hl * scale]
    return tuple(gaps)


_GAP_INT, _GAP, _GAP2_INT, _GAP2 = _half_gaps()


def _nearest_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the interval [low, low + width], under 45 wide, at ``64 * (low
    mod 1000) + width``: ``1024 * k + (low mod 1000)``, with k the number
    of powers 10, 100, 1000 with a multiple inside.  Then, at that plus
    ``D - low`` (0 to 22), D mod 10**k and 10**k."""
    k = np.zeros((1000, 65), dtype=np.int16)
    for p in (10, 100, 1000):  # a multiple of p is inside from this width on
        k[np.arange(1000), np.minimum(-np.arange(1000) % p, 64)] += 1024
    near = np.cumsum(k[:, :64], axis=1, dtype=np.int16) + np.arange(1000, dtype=np.int16)[:, None]
    rest = np.arange(1024) % 10 ** np.arange(4)[:, None]
    return near.ravel(), rest.ravel(), np.repeat(10 ** np.arange(4), 1024)


_NEAR, _REST, _POWER = _nearest_tables()


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The four digit characters of 0..9999, each as one uint32, their
    trailing zeros, and a sign and three digits for each exponent
    -399..399, as one uint32.  Then 0..9999 with their leading zeros as
    NUL, each as one uint32: where 0 is all NUL, and where it is '0'."""
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        chars[..., place] = (np.arange(10, dtype=np.uint8) + ord("0")).reshape((10,) + (1,) * (3 - place))
    chars = chars.reshape(-1, 4)
    z = (np.arange(10) == 0).astype(np.int64)
    zeros = (z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))).ravel()
    leading = (z[:, None, None, None] * (1 + z[:, None, None] * (1 + z[:, None] * (1 + z)))).ravel()
    lead, lead_zero = (
        (chars * (np.arange(4) >= m[:, None])).view(np.uint32)[:, 0]
        for m in (leading, np.minimum(leading, 3))
    )
    exps = np.arange(-399, 400)
    signs = np.where(exps < 0, ord("-"), ord("+")).astype(np.uint8)
    exp_chars = np.column_stack([signs, chars[np.abs(exps), 1:]])
    return chars.view(np.uint32)[:, 0], zeros, exp_chars.view(np.uint32)[:, 0], lead, lead_zero


_DIGITS4, _ZEROS4, _EXP4, _LEAD4, _LEAD4_ZERO = _digit_tables()
_CONST4 = np.frombuffer(b"0.e\0", dtype=np.uint32)[0]


def _groups(v: np.ndarray, count: int) -> np.ndarray:
    """Non-negative integers below 10**(4 * count) as rows of ``count``
    base-10**4 digits, most significant first."""
    out = np.empty((count, len(v)), dtype=np.intp)
    for j in range(count - 1, 0, -1):
        q = v // 10_000
        out[j] = v - q * 10_000
        v = q
    out[0] = v
    return out


# A value's source row: the 20 digits of C (two or three leading zeros),
# its exponent's sign and three digits, '0', '.', 'e', NUL and its sign,
# in 32 bytes.
_D0, _ESIGN, _ZERO, _DOT, _E_CHAR, _NUL, _SIGN = 3, 20, 24, 25, 26, 27, 28
_SRC_WIDTH = 32
_FIXED_EXPS = range(-4, 17)


def _layouts() -> np.ndarray:
    """Source byte of each output byte, per layout.  Fixed layouts come
    first, for exponents -4..16 and 1..17 digits, then exponent
    layouts for 1..17 digits and two or three exponent digits; each for
    17 digits of C and then for 18, whose digits start a byte earlier."""
    i = np.arange(FLOAT_WIDTH - 1)  # the bytes after the sign
    exp, n = np.divmod(np.arange(21 * 17), 17)
    exp, n = exp[:, None] - 4, n[:, None] + 1
    # exponents 0..16: the integer digits, '.', then at least one more digit
    j = np.where(i <= exp, i, i - 1)
    digit = np.where(j < 17, _D0 + j, _ZERO)
    pos = np.where(i == exp + 1, _DOT, np.where(j < np.maximum(n, exp + 2), digit, _NUL))
    # exponents -4..-1: '0.', -exp - 1 zeros, the digits
    j = i + exp - 1
    neg = np.select([i < 2, j < 0, j < n], [np.where(i == 0, _ZERO, _DOT), _ZERO, _D0 + j], _NUL)
    fixed = np.where(exp >= 0, pos, neg)
    # exponent notation: a digit, '.' and the other digits if any, 'e', the sign, 2 or 3 digits
    n, three = np.divmod(np.arange(34), 2)
    n, three = n[:, None] + 1, three[:, None]
    tail = i - np.where(n > 1, n + 1, 1)
    at_digits = [i == 0, (i == 1) & (n > 1), (i >= 2) & (i <= n)]
    at_tail = [tail == 0, tail == 1, (tail >= 2) & (tail < 4 + three)]
    sources = [_D0, _DOT, _D0 + i - 1, _E_CHAR, _ESIGN, _ESIGN + tail - three]
    expo = np.select(at_digits + at_tail, sources, _NUL)
    body = np.concatenate([fixed, expo])
    seventeen = np.column_stack([np.full(len(body), _SIGN), body]).astype(np.intp)
    return np.stack([seventeen, seventeen - (seventeen < _ESIGN)], axis=1).reshape(-1, FLOAT_WIDTH)


_LAYOUTS = _layouts()


def _key_tables() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A value's key is ``_KEY_BASE[E] + 19 * (C has 18 digits) - (C's
    trailing zeros)``: 36 keys per exponent ``16 - s``, for 17 and 18
    digits of C and 18 digit counts.  Per key, the exponent word of the
    text and, for %.17g and for repr, the layout."""
    e0 = np.arange(16 - _S_MAX, 17 - _S_MIN)[:, None]
    eighteen, n = np.divmod(np.arange(36), 18)
    n = np.minimum(n + 1, 17)  # 18 digits with no trailing zero never occur
    exp = e0 + eighteen
    exp_layout = 2 * (len(_FIXED_EXPS) * 17 + 2 * (n - 1) + (np.abs(exp) >= 100)) + eighteen
    fixed_layout = 2 * ((exp - _FIXED_EXPS[0]) * 17 + n - 1) + eighteen
    # repr writes exponents -4..15 in fixed notation, %.17g -4..16
    layouts = tuple(
        np.where((exp >= -4) & (exp <= last), fixed_layout, exp_layout).ravel() for last in (16, 15)
    )
    return 36 * (16 - _S - e0[0]) + 16, _EXP4[exp + 399].ravel(), layouts


_KEY_BASE, _KEY_EXP4, _KEY_LAYOUT = _key_tables()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**s`` as ``D + rho``, for positive a in (_TINY, _HUGE) of
    biased exponents e."""
    ph = a * _HI.take(e)
    ah, al = _split(a)
    hh, hl = _HH.take(e), _HL.take(e)
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl  # a * hi == ph + pl exactly
    pl += a * _LO.take(e)
    r = np.rint(pl)
    return ph.astype(np.int64) + r.astype(np.int64), pl - r


def _shortest(bits, e, d, rho):
    """repr's digits as an integer C, with C * 10**-s the decimal, and
    which values this cannot decide."""
    gap_int, gap = _GAP_INT.take(e), _GAP.take(e)
    t = rho - gap  # the interval's low end is d - gap_int + t
    w = rho + gap  # and its high end d + gap_int + w
    low = d - gap_int + (t > 0)
    high = d + gap_int - (w < 0)
    two = np.flatnonzero((bits & _FRACTION) == 0)  # below a power of two the gap is half as wide
    if len(two):
        e2 = e[two]
        t[two] = rho[two] - _GAP2.take(e2)
        low[two] = d[two] - _GAP2_INT.take(e2) + (t[two] > 0)
    # the interval's ends belong only to an even significand; near an end,
    # a rounded product cannot tell
    unsure = np.zeros(len(d), dtype=bool)
    ends = np.flatnonzero((np.abs(t) <= _MARGIN) | (np.abs(w) <= _MARGIN))
    if len(ends):
        odd = (bits[ends] & np.uint64(1)).astype(bool)
        te, we = t[ends], w[ends]
        low[ends] += (te == 0) & odd
        high[ends] -= (we == 0) & odd
        unsure[ends] = _ROUNDED.take(e[ends]) & ((np.abs(te) < _MARGIN) | (np.abs(we) < _MARGIN))
    # k, the largest power of ten up to 1000 with a multiple in [low, high],
    # from low mod 1000 and the width; then D mod 10**k
    width = high - low
    key = _NEAR.take((low - low // 1000 * 1000) * 64 + width) + (d - low)
    rest, p = _REST.take(key), _POWER.take(key)
    twice = rest + rest
    up = twice + (rho > 0) > p  # to the nearer multiple; at a tie, up if rho > 0
    base = d - rest
    c = base + p * (up | (base < low))  # the nearer multiple inside
    tie = np.flatnonzero((twice == p) & (np.abs(rho) <= _MARGIN))  # y halfway, or too near it
    if len(tie):
        rounded = _ROUNDED.take(e[tie])
        unsure[tie] |= rounded
        # an exact tie goes to the even multiple, as repr's last digit does
        at = tie[~rounded & (rho[tie] == 0)]
        c[at] = base[at] + p[at] * ((base[at] // p[at] & 1) | (base[at] < low[at]))
    unsure |= (c - low).view(np.uint64) > width.view(np.uint64)  # c outside [low, high]
    return c, unsure


def _rounded17(e, d, rho):
    """%.17g's digits as an integer C, with C * 10**-s the decimal, and
    which values this cannot decide."""
    unsure = np.zeros(len(d), dtype=bool)
    at = np.flatnonzero(d >= _P17)  # 18 digits: round at the tens
    if len(at):
        q = d[at] // 10
        rem = d[at] - q * 10
        r = rho[at]
        # d is y rounded to units, half to even, so rem is not 5 where |rho| is 0.5
        up = (rem > 5) | ((rem == 5) & ((r > 0) | ((r == 0) & (q & 1 == 1))))
        d[at] = (q + up) * 10
        unsure[at] = (rem == 5) & (np.abs(r) < _MARGIN) & _ROUNDED.take(e[at])
    return d, unsure


def float_fields(values: np.ndarray, shortest: bool, fallback: Callable[[float], str]) -> np.ndarray:
    """Each value's text, ``repr``'s if ``shortest`` else ``%.17g`` with
    ``.0`` on integral values, as NUL-padded rows of FLOAT_WIDTH bytes.
    Values the kernel leaves get ``fallback(float(value))``.  One pass
    holds a few hundred bytes of scratch per value, so callers pass a
    few thousand values at a time."""
    x = np.asarray(values, dtype=np.float64)
    bits = x.view(np.uint64) & _MAGNITUDE
    left = np.flatnonzero(bits - _INSIDE >= _WIDE)
    bits[left] = _STAND_IN  # 1/3 is in range, and its y takes no subset's path below
    e = (bits >> np.uint64(52)).view(np.int64)
    d, rho = _scaled(bits.view(np.float64), e)
    if shortest:
        c, unsure = _shortest(bits, e, d, rho)
    else:
        c, unsure = _rounded17(e, d, rho)
    near = np.flatnonzero(np.abs(rho) > 0.5 - _MARGIN)  # a rounded product's D may be off by one
    unsure[near] |= _ROUNDED.take(e[near])
    unsure[left] = True
    # C has 17 or 18 digits; an 18th is a zero and adds one to the exponent
    groups = _groups(c, 5)
    zeros = _ZEROS4[groups[4]]
    at = np.flatnonzero(zeros == 4)
    for j in range(3, -1, -1):
        if not len(at):
            break
        more = _ZEROS4[groups[j, at]]
        zeros[at] += more
        at = at[more == 4]
    key = _KEY_BASE.take(e) + 19 * (c >= _P17) - zeros
    src = np.empty((len(x), _SRC_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, :5] = _DIGITS4[groups].T
    words[:, 5] = _KEY_EXP4.take(key)
    words[:, 6] = _CONST4
    src[:, _SIGN] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    index = _LAYOUTS.take(_KEY_LAYOUT[shortest].take(key), axis=0)
    index += np.arange(0, src.size, _SRC_WIDTH)[:, None]
    out = np.take(src.ravel(), index)
    # the rest, one fallback call per distinct value (zeros and non-finite ones repeat)
    redo = np.flatnonzero(unsure)
    if len(redo):
        keys, inverse = np.unique(x[redo].view(np.uint64), return_inverse=True)
        texts = np.zeros((len(keys), FLOAT_WIDTH), dtype=np.uint8)
        for j, value in enumerate(keys.view(np.float64).tolist()):
            text = fallback(value).encode("ascii")
            texts[j, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        out[redo] = texts[inverse.ravel()]
    return out


def int_fields(values: np.ndarray) -> np.ndarray:
    """Each integer's decimal text as NUL-padded rows: a byte for the sign
    and one per digit of the widest value."""
    v = np.asarray(values)
    if v.dtype.kind == "u":
        neg = np.zeros(len(v), dtype=bool)
        mag = v.astype(np.uint64)
    else:
        v = v.astype(np.int64)
        neg = v < 0
        mag = np.where(neg, (~v).astype(np.uint64) + np.uint64(1), v.astype(np.uint64))
    width = len(str(int(mag.max()))) if len(mag) else 1
    groups = _groups(mag, -(-width // 4))  # only as many as the widest value needs
    words = np.empty(groups.shape[::-1], dtype=np.uint32)
    leading = np.ones(len(v), dtype=bool)  # every group so far is 0
    for j, g in enumerate(groups):
        # leading zeros are NUL, but the last digit of 0 is '0'
        lead = (_LEAD4_ZERO if j == len(groups) - 1 else _LEAD4).take(g)
        words[:, j] = lead if j == 0 else np.where(leading, lead, _DIGITS4.take(g))
        leading &= g == 0
    out = np.empty((len(v), 1 + width), dtype=np.uint8)
    out[:, 0] = neg * ord("-")
    out[:, 1:] = words.view(np.uint8)[:, words.shape[1] * 4 - width :]
    return out


_BOOLS = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, BOOL_WIDTH)


def bool_fields(values: np.ndarray) -> np.ndarray:
    """``true`` or ``false`` per value, as NUL-padded rows of BOOL_WIDTH bytes."""
    return _BOOLS[np.asarray(values, dtype=bool).view(np.uint8)]
