"""Decimal text of numpy arrays, vectorized: floats exactly as ``repr``
or as ``format(x, ".17g")`` with ``.0`` on integral values, integers and
bools as JSON writes them.

Each value becomes one row of a uint8 array: its text, padded with NUL
bytes to the width of its kind.  The caller lays fields and literal text
side by side and drops the NULs.

Floats.  For |x| in (1e-280, 1e280), ``y = |x| * 10**s`` with ``s``
chosen so that ``10**16 <= y < 10**18`` is computed as a double-double:
a Dekker product of |x| with the double nearest ``10**s``, plus |x| times
the double nearest the rest of ``10**s``.  For ``0 <= s <= 22`` that rest
is 0 and the product is exact; otherwise it is off by at most about
``y * 2**-104``, under ``2**-44``.  ``y`` is held as an integer ``D`` plus
``rho`` in [-0.5, 0.5].

* ``%.17g`` rounds ``y`` to 17 digits (half to even).
* ``repr`` picks the shortest decimal inside x's rounding interval, as
  David Gay's shortest mode does: the interval reaches half a gap to each
  neighbour of x (half of the smaller gap below a power of two), and its
  ends count only for an even significand.  Take ``P``, the largest power
  of ten up to 1000 with a multiple inside the interval (the interval is
  under 223 wide, so a multiple of a larger power inside is that same
  number); of the two multiples of ``P`` next to ``y`` the nearer one
  inside wins, and its trailing zeros are dropped.

Every decision compares two integers, or a double with 0 or 0.5.  Where
the product is exact, so are those doubles.  Where it is rounded, a value
whose decision lies within ``_MARGIN`` = 2**-30 of its threshold, far
above the rounding, goes to the caller's per-value function instead, as
do values outside (1e-280, 1e280), zeros among them, and non-finite ones.
So no digit depends on the margin being tight.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

FLOAT_WIDTH = 24  # a sign, then at most 23 characters: -1.2345678901234567e-308
BOOL_WIDTH = 5

_MARGIN = 2.0**-30
_TINY, _HUGE = 1e-280, 1e280
_S_MIN, _S_MAX = -265, 300  # 10**s for every |x| in (_TINY, _HUGE)


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**s for s in [_S_MIN, _S_MAX] as the nearest double plus the
    double nearest the rest, from exact integer arithmetic."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            h = float(10**s)  # int -> float and int / int round correctly
            rest = float(10**s - int(h))
        else:
            d = 10**-s
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(rest)
    return np.array(hi), np.array(lo)


_HI, _LO = _powers_of_ten()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_UPOW10 = 10 ** np.arange(20, dtype=np.uint64)


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four digit characters of 0..9999, each as one uint32, their
    trailing zeros, and a sign and three digits for each exponent
    -399..399, as one uint32."""
    places = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (places + ord("0")).astype(np.uint8)
    zeros = np.cumprod(places[:, ::-1] == 0, axis=1).sum(axis=1)
    exps = np.arange(-399, 400)
    signs = np.where(exps < 0, ord("-"), ord("+")).astype(np.uint8)
    exp_chars = np.column_stack([signs, chars[np.abs(exps), 1:]])
    return chars.view(np.uint32)[:, 0], zeros, exp_chars.view(np.uint32)[:, 0]


_DIGITS4, _ZEROS4, _EXP4 = _digit_tables()
_SIGN4 = np.array([[0, 0, 0, 0], [ord("-"), 0, 0, 0]], dtype=np.uint8).view(np.uint32)[:, 0]
_CONST4 = np.frombuffer(b"0.e\0", dtype=np.uint32)[0]
_EXP_FIELD = np.uint64(0x7FF0_0000_0000_0000)
_FRACTION = np.uint64(0x000F_FFFF_FFFF_FFFF)


def _groups(v: np.ndarray) -> np.ndarray:
    """Non-negative integers below 10**20 as rows of five base-10**4
    digits, most significant first."""
    out = np.empty((len(v), 5), dtype=np.intp)
    for j in range(4, 0, -1):
        q = v // 10_000
        out[:, j] = v - q * 10_000
        v = q
    out[:, 0] = v
    return out


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


def _scaled(a: np.ndarray):
    """``a * 10**s`` as ``D + rho``, for positive a in (_TINY, _HUGE), with
    10**s as the doubles ``hi + lo``."""
    _, e2 = np.frexp(a)
    # floor((e2 - 1) * log10(2)) <= floor(log10(a)) by at most 1
    s = 16 - (((e2.astype(np.intp) - 1) * 78913) >> 18)
    hi = _HI[s - _S_MIN]
    lo = _LO[s - _S_MIN]
    ph = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl  # a * hi == ph + pl exactly
    pl += a * lo
    r = np.rint(pl)
    return ph.astype(np.int64) + r.astype(np.int64), pl - r, s, hi, lo


def _shortest(bits, d, rho, hi, lo, margin):
    """repr's digits as an integer C, with C * 10**-s the decimal, and
    which values this cannot decide."""
    # half the gap to each neighbour, scaled like y, as an integer plus a
    # double in [-0.5, 0.5]; below a power of two the gap is half as wide
    u = ((bits & _EXP_FIELD) - np.uint64(53 << 52)).view(np.float64)
    hh, hl = u * hi, u * lo  # both exact: u is a power of two
    above_int = np.rint(hh)
    above = (hh - above_int) + hl
    shrink = 1.0 - 0.5 * ((bits & _FRACTION) == 0)
    hh *= shrink
    below_int = np.rint(hh)
    below = (hh - below_int) + hl * shrink
    odd = (bits & np.uint64(1)).astype(bool)  # the interval's ends belong only to an even significand
    t = rho - below  # the interval's low end is d - below_int + t
    w = rho + above  # and its high end d + above_int + w
    low = d - below_int.astype(np.int64) + (t > 0) + ((t == 0) & odd)
    high = d + above_int.astype(np.int64) - (w < 0) - ((w == 0) & odd)
    unsure = (np.abs(t) < margin) | (np.abs(w) < margin)
    # k, the largest power of ten up to 1000 with a multiple in [low, high]:
    # the interval is under 223 wide, so where a multiple of 1000 is in it,
    # it is the only one, and any multiple of a larger power of ten in it
    # is that one too
    k = sum((low - 1) // p < high // p for p in (10, 100, 1000))
    p = _POW10[k]
    q = d // p
    rem = d - q * p
    half = p >> 1
    up = (k > 0) & ((rem > half) | ((rem == half) & (rho > 0)))
    near = (q + up) * p
    c = near + p * (near < low)
    unsure |= (k > 0) & (rem == half) & (np.abs(rho) <= margin)  # a tie, or too near one
    unsure |= (c < low) | (c > high)
    return c, unsure


def _rounded17(d, rho, margin):
    """%.17g's digits as an integer C, with C * 10**-s the decimal, and
    which values this cannot decide."""
    big = d >= _POW10[17]  # 18 digits: round at the tens
    q = d.copy()
    rem = np.zeros_like(d)
    at = np.flatnonzero(big)
    q[at] = d[at] // 10
    rem[at] = d[at] - q[at] * 10
    # rho is in (-0.5, 0.5): d is y rounded to units
    up = (rem > 5) | ((rem == 5) & ((rho > 0) | ((rho == 0) & (q & 1 == 1))))
    unsure = (rem == 5) & (np.abs(rho) < margin)
    return (q + up) * (1 + 9 * big), unsure


# A value's source row: 3 zeros and its 17 digits, its exponent's sign and
# three digits, '0', '.', 'e', NUL and its sign, in 32 bytes.
_D0, _ESIGN, _ZERO, _DOT, _E, _NUL, _SIGN = 3, 20, 24, 25, 26, 27, 28
_SRC_WIDTH = 32


def _layouts() -> np.ndarray:
    """Source byte of each output byte, per layout.  Fixed layouts come
    first, for exponents -4..16 and 1..17 digits, then exponent
    layouts for 1..17 digits and two or three exponent digits."""
    rows = []
    for exp in range(-4, 17):
        for n in range(1, 18):
            if exp >= 0:
                frac = [_D0 + j if j < 17 else _ZERO for j in range(exp + 1, max(n, exp + 2))]
                body = [*range(_D0, _D0 + exp + 1), _DOT, *frac]
            else:
                body = [_ZERO, _DOT, *[_ZERO] * (-exp - 1), *range(_D0, _D0 + n)]
            rows.append(body)
    for n in range(1, 18):
        for three in (False, True):
            digits = [_D0, _DOT, *range(_D0 + 1, _D0 + n)] if n > 1 else [_D0]
            rows.append([*digits, _E, _ESIGN, *range(_ESIGN + 2 - three, _ESIGN + 4)])
    return np.array([[_SIGN, *r] + [_NUL] * (FLOAT_WIDTH - 1 - len(r)) for r in rows], dtype=np.intp)


_LAYOUTS = _layouts()


def float_fields(values: np.ndarray, shortest: bool, fallback: Callable[[float], str]) -> np.ndarray:
    """Each value's text, ``repr``'s if ``shortest`` else ``%.17g`` with
    ``.0`` on integral values, as NUL-padded rows of FLOAT_WIDTH bytes.
    Values the kernel leaves get ``fallback(float(value))``.  One pass
    holds a few hundred bytes of scratch per value, so callers pass a
    few thousand values at a time."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    left = np.flatnonzero(~((a > _TINY) & (a < _HUGE)))
    a[left] = 1.0  # a stand-in, so the arithmetic stays in range
    bits = a.view(np.uint64)
    d, rho, s, hi, lo = _scaled(a)
    margin = (lo != 0) * _MARGIN  # an exact product decides exactly
    if shortest:
        c, unsure = _shortest(bits, d, rho, hi, lo, margin)
    else:
        c, unsure = _rounded17(d, rho, margin)
    unsure |= np.abs(rho) > 0.5 - _MARGIN
    unsure[left] = True
    # c has 17 to 19 digits; keep 17, the rest are zeros
    exp = 16 - s
    for limit in _POW10[17:]:
        at = np.flatnonzero(c >= limit)
        c[at] //= 10
        exp[at] += 1
    src = np.empty((len(x), _SRC_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    groups = _groups(c)
    words[:, :5] = _DIGITS4[groups]
    words[:, 5] = _EXP4[exp + 399]
    words[:, 6] = _CONST4
    words[:, 7] = _SIGN4[np.signbit(x).view(np.uint8)]
    # significant digits: 17 less the trailing zeros, found a group at a time
    n = 17 - _ZEROS4[groups[:, 4]]
    at = np.flatnonzero(n == 13)
    for j in range(3, -1, -1):
        zeros = _ZEROS4[groups[at, j]]
        n[at] -= zeros
        at = at[zeros == 4]
    # repr writes exponents -4..15 in fixed notation, %.17g -4..16
    fixed = (exp >= -4) & (exp <= (15 if shortest else 16))
    by_exp = 21 * 17 + (n - 1) * 2 + (np.abs(exp) >= 100)
    layout = by_exp + fixed * ((exp + 4) * 17 + n - 1 - by_exp)
    index = _LAYOUTS.take(layout, axis=0)
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
    digits = _DIGITS4[_groups(mag)].view(np.uint8)
    n = np.maximum(np.searchsorted(_UPOW10, mag, side="right"), 1)
    width = int(n.max()) if len(n) else 1
    out = np.empty((len(v), 1 + width), dtype=np.uint8)
    out[:, 0] = neg * ord("-")
    # leading zeros, but not the last digit of 0, become NUL
    out[:, 1:] = digits[:, 20 - width :] * (np.arange(width) >= width - n[:, None])
    return out


_BOOLS = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, BOOL_WIDTH)


def bool_fields(values: np.ndarray) -> np.ndarray:
    """``true`` or ``false`` per value, as NUL-padded rows of BOOL_WIDTH bytes."""
    return _BOOLS[np.asarray(values, dtype=bool).view(np.uint8)]
