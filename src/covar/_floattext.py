"""Decimal text of numpy arrays, vectorized: floats exactly as
``format(x, ".17g")`` with ``.0`` on integral values, integers and bools
as JSON writes them.

Each value becomes one row of a uint8 array: its text, padded with NUL
bytes to the width of its kind.  The caller lays fields and literal text
side by side and drops the NULs.

Floats.  For |x| in (1e-280, 1e280), ``y = |x| * 10**s`` with ``s``
chosen from x's binary exponent, so that ``10**16 <= y < 2 * 10**17``, is
computed as a double-double: a Dekker product of |x| with the double
nearest ``10**s``, plus |x| times the double nearest the rest of
``10**s``.  For ``0 <= s <= 22`` that rest is 0 and the product is exact;
otherwise it is off by at most about ``y * 2**-104``, under ``2**-46``.
``y`` is held as an integer ``C`` plus ``rho`` in [-0.5, 0.5], C rounded
half to even.  Where C reaches ``10**17``, y is formed again with
``s - 1``, in [10**16, 2 * 10**16), so every C has 17 digits.  Where the
product is rounded, no double's y lies within 2**-8 of ``10**17 - 1/2``,
so the first C picks the values to scale again exactly.

Every decision compares two integers, or a double with 0.5.  Where the
product is exact, so are those doubles.  Where it is rounded, a value
whose ``|rho|`` lies within ``_MARGIN`` = 2**-30 of 0.5, far above the
rounding, goes to the caller's per-value function instead, as do values
outside (1e-280, 1e280), zeros among them, and non-finite ones.  So no
digit depends on the margin being tight.

Tables do the per-value work that depends on few inputs.  Everything
that depends on s alone (the split ``10**s``, whether the product is
rounded, the exponent of the text) is read from tables indexed by s.
The text is gathered from a 32-byte row per value (its digits, exponent,
sign and the characters ``0.e``) through one layout per exponent and
digit count.  The gather index is intp: np.take would copy a narrower
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


def _scale_index(e):
    """The index of 10**s in the per-s tables, for |x| in [2**e, 2**(e + 1))."""
    return (16 - _S_MIN) - ((e * 78913) >> 18)  # s = 16 - floor(e * log10(2)) for |e| < 1650


# Per s, at index s - _S_MIN
_HI, _LO = _powers_of_ten()
_HH, _HL = _split(_HI)
_ROUNDED = _LO != 0  # the product is rounded, so its decisions keep a margin


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The four digit characters of 0..9999, each as one uint32, their
    trailing zeros, and a sign and three digits of the text's exponent
    16 - s per s, as one uint32.  Then 0..9999 with their leading zeros as
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
    exps = 16 - np.arange(_S_MIN, _S_MAX + 1)
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


# A value's source row: the 20 digits of C (three leading zeros),
# its exponent's sign and three digits, '0', '.', 'e', NUL and its sign,
# in 32 bytes.
_D0, _ESIGN, _ZERO, _DOT, _E_CHAR, _NUL, _SIGN = 3, 20, 24, 25, 26, 27, 28
_SRC_WIDTH = 32
_FIXED_EXPS = range(-4, 17)


def _layouts() -> np.ndarray:
    """Source byte of each output byte, per layout.  Fixed layouts come
    first, for exponents -4..16 and 1..17 digits, then exponent
    layouts for 1..17 digits and two or three exponent digits."""
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
    return np.column_stack([np.full(len(body), _SIGN), body]).astype(np.intp)


_LAYOUTS = _layouts()


def _key_layouts() -> np.ndarray:
    """A value's key is ``17 * (s - _S_MIN) + 16 - (C's trailing zeros)``:
    17 keys per s, one per digit count.  Per key, the layout."""
    exp = 16 - np.arange(_S_MIN, _S_MAX + 1)[:, None]
    n = np.arange(1, 18)
    exp_layout = len(_FIXED_EXPS) * 17 + 2 * (n - 1) + (np.abs(exp) >= 100)
    fixed_layout = (exp - _FIXED_EXPS[0]) * 17 + n - 1
    layout = np.where((exp >= _FIXED_EXPS[0]) & (exp <= _FIXED_EXPS[-1]), fixed_layout, exp_layout)
    return layout.ravel()


_KEY_LAYOUT = _key_layouts()


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**s`` as ``C + rho``, for positive a in (_TINY, _HUGE) and
    s as indices into the per-s tables."""
    ph = a * _HI.take(s)
    ah, al = _split(a)
    hh, hl = _HH.take(s), _HL.take(s)
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl  # a * hi == ph + pl exactly
    pl += a * _LO.take(s)
    r = np.rint(pl)  # ph is an even integer, so C is y rounded half to even
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
    a = bits.view(np.float64)
    s = _scale_index((bits >> np.uint64(52)).view(np.int64) - 1023)  # s - _S_MIN, from here on
    c, rho = _scaled(a, s)
    at = np.flatnonzero(c >= _P17)  # 18 digits: y again with s - 1
    if len(at):
        s[at] -= 1
        c[at], rho[at] = _scaled(a[at], s[at])
    near = np.flatnonzero(np.abs(rho) > 0.5 - _MARGIN)  # a rounded product's C may be off by one
    unsure = np.zeros(len(x), dtype=bool)
    unsure[near] = _ROUNDED.take(s[near])
    unsure[left] = True
    groups = _groups(c, 5)
    zeros = _ZEROS4[groups[4]]
    at = np.flatnonzero(zeros == 4)
    for j in range(3, 0, -1):  # C's leading group is not 0
        if not len(at):
            break
        more = _ZEROS4[groups[j, at]]
        zeros[at] += more
        at = at[more == 4]
    key = 17 * s + 16 - zeros
    src = np.empty((len(x), _SRC_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, :5] = _DIGITS4[groups].T
    words[:, 5] = _EXP4.take(s)
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
