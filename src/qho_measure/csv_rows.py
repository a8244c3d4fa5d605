"""Bulk text rows `index,x_M,t_eff` for samples.csv, equal to Python's.

Each float is written exactly as `repr` writes it: the shortest decimal
that reads back to the same double, the closest such when several have
that length (ties to an even last digit), in repr's layout. For doubles
with 2^-6 <= |x| < 2^53, which repr writes positionally, the digits come
from integer arithmetic over a whole chunk at once: x = m / 2^k with a
53-bit m and 0 <= k <= 58, so the integer part is m >> k and the fraction,
held in units of 2^-60, stays below 2^64 when multiplied by ten. Fraction
digits are generated until the rounding interval of x admits the prefix
(free-format digit generation: Steele & White, PLDI 1990; Burger & Dybvig,
PLDI 1996). Every other value (zero, subnormals, tiny or huge magnitudes)
goes through repr itself, one batch per chunk.

Fields are built null-padded in fixed-width uint8 matrices; dropping the
nulls of the row matrix leaves the text.
"""
from __future__ import annotations

import numpy as np

_FRAC_WIDTH = 18  # fraction digits: at most 17 significant ones after "0.0"
_ONE = np.uint64(1 << 60)
_HALF = np.uint64(1 << 59)
_HIDDEN = np.uint64(1 << 52)  # the implicit leading bit of a significand
_TEN = np.uint64(10)


def _int_digits(q: np.ndarray) -> np.ndarray:
    """Decimal digits of uint64 integers, right-aligned, null-padded."""
    width = len(str(int(q.max()))) if q.size else 1
    out = np.zeros((q.size, width), np.uint8)
    for j in range(width - 1, -1, -1):
        live = q > 0
        q, r = np.divmod(q, _TEN)
        out[:, j] = np.where(live, r + ord("0"), 0)
    out[:, -1] |= ord("0")  # zero prints as "0"
    return out


def _frac_digits(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Shortest fraction digits of the doubles m / 2^k; "0" for an integer.

    x = m / 2^k has at most k fraction digits, so digit generation reaches
    r = 0 by digit k, while a bound of the rounding interval has k + 1
    fraction digits (k + 2 below a power of two). No prefix meets a bound
    exactly, and the powers of two here (exact in at most 6 digits) end at
    r = 0 before the narrower gap below them could admit one: the closed
    interval of an even m and that gap, which repr honours, decide no digit.
    """
    one = np.uint64(1)
    shift = np.uint64(60) - k
    r = (m & ((one << k) - one)) << shift
    gap = one << (shift - one)  # half the distance to the neighbouring doubles
    digits = np.zeros((_FRAC_WIDTH, m.size), np.uint8)
    n_digits = (r == 0).astype(np.uint8)  # an integer shows the 0 that r = 0 gives
    active = r != 0
    for j in range(_FRAC_WIDTH):
        r *= _TEN
        gap *= _TEN  # wraps once the value is done, and is then unused
        d = r >> np.uint64(60)
        r &= _ONE - one
        low = r < gap  # the prefix ending in d reads back
        high = r + gap > _ONE  # the prefix ending in d + 1 reads back
        nearer = r + (d & one) > _HALF  # d + 1 is closer, or as close and even
        np.add(d, high & (~low | nearer), out=digits[j], casting="unsafe")
        n_digits += active
        active &= ~(low | high)
        if not active.any():
            break
    width = int(n_digits.max()) if m.size else 1
    shown = np.arange(width, dtype=np.uint8) < n_digits[:, None]
    return (digits[:width].T + np.uint8(ord("0"))) * shown


def float_fields(x: np.ndarray) -> np.ndarray:
    """repr(float(v)) for each v in x, as rows of a null-padded uint8 matrix."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 2.0**-6) & (a < 2.0**53)
    bits = a[fast].view(np.uint64)
    m = (bits & (_HIDDEN - np.uint64(1))) | _HIDDEN
    k = np.uint64(1075) - (bits >> np.uint64(52))
    text = np.hstack([
        np.where(np.signbit(x[fast]), ord("-"), 0).astype(np.uint8)[:, None],
        _int_digits(m >> k),
        np.full((m.size, 1), ord("."), np.uint8),
        _frac_digits(m, k),
    ])
    if text.shape[0] == x.size:
        return text
    slow = np.array(list(map(repr, x[~fast].tolist())), dtype="S")
    slow = slow.view(np.uint8).reshape(slow.size, slow.itemsize)
    out = np.zeros((x.size, max(text.shape[1], slow.shape[1])), np.uint8)
    out[fast, : text.shape[1]] = text
    out[~fast, : slow.shape[1]] = slow
    return out


def sample_rows(first_index: int, x_m: np.ndarray, t_eff) -> bytes:
    """Rows `index,x_M,t_eff` numbered from first_index, as the bytes of

        "".join(map("{},{!r},{}\\n".format, indices, x_m, t_texts))

    t_eff is an array like x_m, or one float written on every row.
    """
    n = len(x_m)
    index = _int_digits(np.arange(first_index, first_index + n, dtype=np.uint64))
    if np.ndim(t_eff) == 0:
        t_text = np.frombuffer(repr(float(t_eff)).encode(), np.uint8)
        t_col = np.broadcast_to(t_text, (n, t_text.size))
    else:
        t_col = float_fields(t_eff)
    sep = np.full((n, 1), ord(","), np.uint8)
    rows = np.hstack([index, sep, float_fields(x_m), sep, t_col, np.full((n, 1), ord("\n"), np.uint8)])
    return rows.tobytes().translate(None, b"\0")
