"""Decimal text of numpy arrays, vectorized: floats exactly as
``format(x, ".17g")`` with ``.0`` on integral values, integers and bools
as JSON writes them.

Each value becomes one row of a uint8 array: its text, padded with NUL
bytes to the width of its kind.  The caller lays fields and literal text
side by side and drops the NULs.

Floats.  For |x| in (1e-280, 1e280), ``y = |x| * 10**s`` with ``s``
chosen so that ``10**16 <= y < 2 * 10**17`` is computed as a double-double:
a Dekker product of |x| with the double nearest ``10**s``, plus |x| times
the double nearest the rest of ``10**s``.  For ``0 <= s <= 22`` that rest
is 0 and the product is exact; otherwise it is off by at most about
``y * 2**-104``, under ``2**-46``.  ``y`` is held as an integer ``D`` plus
``rho`` in [-0.5, 0.5], and rounded to 17 digits (half to even): an 18th
digit is rounded away at the tens.

Every decision compares two integers, or a double with 0 or 0.5.  Where
the product is exact, so are those doubles.  Where it is rounded, a value
whose decision lies within ``_MARGIN`` = 2**-30 of its threshold, far
above the rounding, goes to the caller's per-value function instead, as
do values outside (1e-280, 1e280), zeros among them, and non-finite ones.
So no digit depends on the margin being tight.

Tables do the per-value work that depends on few inputs.  Everything
that depends on x's binary exponent alone (``s``, the split ``10**s``,
the exponent of the text) is read from tables indexed by it.  The text
is gathered from a 32-byte row per value (its digits, exponent, sign and
the characters ``0.e``) through one layout per exponent, digit count and
digit offset.  The gather index is intp: np.take would copy a narrower
one to intp first.
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


def _key_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A value's key is ``_KEY_BASE[E] + 19 * (C has 18 digits) - (C's
    trailing zeros)``: 36 keys per exponent ``16 - s``, for 17 and 18
    digits of C and 18 digit counts.  Per key, the exponent word of the
    text and the layout."""
    e0 = np.arange(16 - _S_MAX, 17 - _S_MIN)[:, None]
    eighteen, n = np.divmod(np.arange(36), 18)
    n = np.minimum(n + 1, 17)  # 18 digits with no trailing zero never occur
    exp = e0 + eighteen
    exp_layout = 2 * (len(_FIXED_EXPS) * 17 + 2 * (n - 1) + (np.abs(exp) >= 100)) + eighteen
    fixed_layout = 2 * ((exp - _FIXED_EXPS[0]) * 17 + n - 1) + eighteen
    layout = np.where((exp >= _FIXED_EXPS[0]) & (exp <= _FIXED_EXPS[-1]), fixed_layout, exp_layout)
    return 36 * (16 - _S - e0[0]) + 16, _EXP4[exp + 399].ravel(), layout.ravel()


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


def float_fields(values: np.ndarray, fallback: Callable[[float], str]) -> np.ndarray:
    """Each value's text, ``%.17g`` with ``.0`` on integral values, as
    NUL-padded rows of FLOAT_WIDTH bytes.  Values the kernel leaves get
    ``fallback(float(value))``.  One pass holds a few hundred bytes of
    scratch per value, so callers pass a few thousand values at a time."""
    x = np.asarray(values, dtype=np.float64)
    bits = x.view(np.uint64) & _MAGNITUDE
    left = np.flatnonzero(bits - _INSIDE >= _WIDE)
    bits[left] = _STAND_IN  # 1/3 is in range, and its y takes no subset's path below
    e = (bits >> np.uint64(52)).view(np.int64)
    c, rho = _scaled(bits.view(np.float64), e)  # y as D + rho; D is rounded to C in place
    unsure = np.zeros(len(x), dtype=bool)
    at = np.flatnonzero(c >= _P17)  # 18 digits: round at the tens
    if len(at):
        q = c[at] // 10
        rem = c[at] - q * 10
        r = rho[at]
        # C is y rounded to units, half to even, so rem is not 5 where |rho| is 0.5
        up = (rem > 5) | ((rem == 5) & ((r > 0) | ((r == 0) & (q & 1 == 1))))
        c[at] = (q + up) * 10
        unsure[at] = (rem == 5) & (np.abs(r) < _MARGIN) & _ROUNDED.take(e[at])
    near = np.flatnonzero(np.abs(rho) > 0.5 - _MARGIN)  # a rounded product's C may be off by one
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
    index = _LAYOUTS.take(_KEY_LAYOUT.take(key), axis=0)
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
