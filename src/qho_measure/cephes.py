"""Numpy ports of Cephes ndtri and ndtr (Moshier, Methods and Programs for
Mathematical Functions, 1989), the code of scipy.special's: the same bits,
without importing scipy. They make the C code's operations in its order,
which numpy's +, -, *, / and sqrt round as C does, and take every log and
exp from math.log and math.exp, the C library scipy calls (np.log differs in
the last bit on some inputs). That pass is a Python loop and holds the GIL.
Both take 1-D arrays and work through them BLOCK values at a time.
"""
from __future__ import annotations

import math

import numpy as np

EXP_M2 = 0.13533528323661269189  # e^-2, the edge of ndtri's central branch
SQRT1_2 = 0.70710678118654752440
MAXLOG = 7.09782712893383996843e2  # exp underflows below -MAXLOG

# Values per block. A block's scratch (the branch masks, the branches' arrays
# and the tolist of the log or exp pass) is about 0.6 MB in ndtri and 1.1 MB
# in ndtr, and a call's is the same whatever its input's length.
BLOCK = 1 << 14

# Cephes's tables; each Q carries the leading 1 that Cephes's p1evl implies.
# ndtri: P0/Q0 for |y - 1/2| < 1/2 - e^-2, then P1/Q1 for sqrt(-2 log y) < 8, P2/Q2 beyond
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1, 1.39312609387279679503e1,
      -1.23916583867381258016e0)
Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1, -2.25462687854119370527e2,
      2.00260212380060660359e2, -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
      1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1, -3.50424626827848203418e-2,
      -8.57456785154685413611e-4)
Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1, 1.50425385692907503408e1,
      2.50464946208309415979e0, -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
      2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4, 2.65806974686737550832e-6,
      6.23974539184983293730e-9)
Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0, 2.16236993594496635890e-1,
      1.34204006088543189037e-2, 3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)
# erf: T/U for |x| < 1; erfc: P/Q for 1 <= x < 8, R/S beyond
T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
     5.55923013010394962768e4)
U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
     4.92673942608635921086e4)
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
     1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
     5.57535335369399327526e2)
Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
     1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
     7.40974269950448939160e0, 2.97886665372100240670e0)
S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
     9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, as Cephes's polevl."""
    ans = coef[0] * x
    for c in coef[1:-1]:
        ans += c
        ans *= x
    ans += coef[-1]
    return ans


def _libm(f, x: np.ndarray) -> np.ndarray:
    """f (math.log or math.exp) of each value, one Python call per value."""
    return np.fromiter(map(f, x.tolist()), float, count=x.size)


def _polevl_split(z: np.ndarray, near: np.ndarray, near_coef, far_coef) -> np.ndarray:
    """_polevl of z by near_coef, and by far_coef where not near: the far
    table is evaluated only on the values that take it."""
    v = _polevl(z, near_coef)
    far = ~near
    if far.any():
        v[far] = _polevl(z[far], far_coef)
    return v


def _by_blocks(f, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(a block, out's block) for each BLOCK values of a; returns out."""
    for lo in range(0, a.size, BLOCK):
        f(a[lo:lo + BLOCK], out[lo:lo + BLOCK])
    return out


def ndtri(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x with Phi(x) = y for each y in (0, 1), into out (which may be y)."""
    return _by_blocks(_ndtri, y, out)


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each value of a."""
    a = np.asarray(a, dtype=float)
    return _by_blocks(_ndtr, a, np.empty_like(a))


def _ndtri(y: np.ndarray, out: np.ndarray) -> None:
    upper = y > 1.0 - EXP_M2
    tail = upper | (y <= EXP_M2)  # Cephes's y -> 1 - y above 1 - e^-2 is exact and lands at or below e^-2
    r, flip = y[tail], upper[tail]
    r[flip] = 1.0 - r[flip]
    central = ~tail
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, P0) / _polevl(c2, Q0))) * 2.50662827463100050242  # sqrt(2 pi)
    x = np.sqrt(-2.0 * _libm(math.log, r))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    near = x < 8.0
    x = x0 - z * _polevl_split(z, near, P1, P2) / _polevl_split(z, near, Q1, Q2)
    out[tail] = np.where(flip, x, -x)


def _ndtr(a: np.ndarray, out: np.ndarray) -> None:
    x = a * SQRT1_2
    z = np.abs(x)
    low = z < 1.0
    zl = z[low]
    erf = zl * _polevl(zl * zl, T) / _polevl(zl * zl, U)  # erf(|x|); erf(-x) = -erf(x) exactly
    erfc = np.zeros_like(z)  # Cephes's erfc(|x|): 1 - erf below 1, and 0 where exp(-x^2) underflows
    erfc[low] = 1.0 - erf
    with np.errstate(over="ignore"):
        high = ~low & ~(-z * z < -MAXLOG)
    zh = z[high]
    near = zh < 8.0
    erfc[high] = _libm(math.exp, -zh * zh) * _polevl_split(zh, near, P, R) / _polevl_split(zh, near, Q, S)
    out[:] = np.where(x > 0, 1.0 - 0.5 * erfc, 0.5 * erfc)
    inner = z < SQRT1_2  # Cephes takes 0.5 + 0.5 erf(x) there
    out[inner] = 0.5 + 0.5 * np.copysign(erf[inner[low]], x[inner])
