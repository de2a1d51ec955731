"""One-sided Clopper-Pearson upper limits of a binomial proportion, without scipy.

For x successes in n trials the upper limit at confidence c is the u that
solves P(Bin(n, u) <= x) = 1 - c, the c-quantile of Beta(x + 1, n - x).
x = 0 has the closed form 1 - (1 - c)^(1/n) and x = n the limit 1.  For
0 < x < n, Halley's method solves ln P(u) = ln(1 - c), with

    P(u) = u * dbinom(x; n, u) * K(u),

where K is the continued fraction of the regularised incomplete beta
function I_{1-u}(n - x, x + 1) (Numerical Recipes' betacf).  Near the
root u is close to x/n, and two details keep every step at full
precision there:

- dbinom uses Loader's saddle-point form, stirlerr and the deviance bd0,
  instead of lgamma, whose cancellation loses about 1e-9 at n = 1e6.
- K is summed as the even contraction of that fraction, with every
  partial denominator 1 + d_2m + d_2m+1 written as a sum of positive
  terms in u.  Written as 1 - (a + b)(1 - u) / (a + 1) and so on, those
  denominators cancel to O(u), which at n = 1e7 and x = 1 costs 1e-11
  of the limit.

The solver is scalar per distinct count; numpy builds the fraction's
coefficients for all counts at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []

_LN_2PI = math.log(2.0 * math.pi)
# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for k = 1..9, correctly
# rounded from 50-digit mpmath values; the series in _stirlerr covers k >= 10
_STIRLERR_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
)
# continued-fraction rows built first: every limit at c = 0.99 up to n = 1e9 needs at most 78
_CF_ROWS = 80
_CF_REL = 2.0**-50   # two successive approximants this close: the fraction has converged
# a Halley step below this many standard deviations of the limit is the last: the
# next error is C times its cube, and C stayed below 0.46 over 1 <= x < n <= 1e7
_STEP_TOL = 1e-5
_ULP = 2.0**-52
_MAX_ROUNDS = 100


def upper_limit(x: np.ndarray, n: int, confidence: float) -> np.ndarray:
    """Upper limits for integer counts x, 0 <= x <= n, out of n trials, at confidence in [1/2, 1)."""
    x = np.asarray(x)
    upper = np.ones(x.shape)
    upper[x == 0] = -math.expm1(math.log1p(-confidence) / n)
    inner = (x > 0) & (x < n)
    if inner.any():
        ks = x[inner].tolist()
        counts = sorted(set(ks))
        z = _normal_quantile(confidence)
        limits = {k: _solve(k, n, confidence, z, rows)
                  for k, rows in zip(counts, _cf_rows(np.array(counts), n, _CF_ROWS))}
        upper[inner] = [limits[k] for k in ks]
    return upper


def _solve(x: int, n: int, c: float, z: float, rows: tuple[list[float], list[float], list[float]]) -> float:
    """The root u of ln P(u) = ln(1 - c), for 0 < x < n; z is the normal c-quantile."""
    a = n - x
    # the part of ln dbinom(x; n, u) that does not depend on u, less ln(1 - c)
    lead = (_stirlerr(n) - _stirlerr(x) - _stirlerr(a)
            - 0.5 * (_LN_2PI + math.log(x) + math.log1p(-x / n)) - math.log1p(-c))
    # the limit's relative standard deviation, about 1 / sqrt(x (n - x) / n)
    spread = 1.0 / math.sqrt(1.0 + x * a / n)
    # for c >= 1/2 the root is at or above the median of Beta(x + 1, n - x), which lies
    # between its mode x / (n - 1) and its mean (x + 1) / (n + 1), both above x / (n + 1)
    lo, hi = x / (n + 1), 1.0
    u = _start(x, n, z)
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    for _ in range(_MAX_ROUNDS):
        q = 1.0 - u
        e = (n + 1) * u - x
        g = _reciprocal_k(x, u, q, e, a, rows)
        while g is None:
            rows = _cf_rows(np.array([x]), n, 2 * len(rows[0]))[0]
            g = _reciprocal_k(x, u, q, e, a, rows)
        nu = n * u
        f = math.log(u) + lead - _bd0(x, nu, x - nu) - _bd0(a, n * q, nu - x) - math.log(g)
        if f > 0.0:
            lo = u
        else:
            hi = u
        # d ln P / du = -(n - x) / (u q K); P'' = P' (x / u - (n - x - 1) / q)
        f1 = -a * g / (u * q)
        f2 = f1 * (x / u - (a - 1) / q) - f1 * f1
        # the step is taken in ln u below 1/2 and in ln(1 - u) above: w = du / d(ln w)
        w = u if u <= 0.5 else -q
        df = w * f1
        d2f = df + w * w * f2
        step = -2.0 * f * df / (2.0 * df * df - f * d2f)
        proposed = u * math.exp(step) if u <= 0.5 else 1.0 - q * math.exp(step)
        # near 1, u's last bits can stop short of _STEP_TOL in ln(1 - u)
        if abs(step) <= _STEP_TOL * spread or abs(proposed - u) <= _ULP * u:
            return proposed
        u = proposed if lo < proposed < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"Clopper-Pearson limit for x={x}, n={n} did not converge")


def _cf_rows(x: np.ndarray, n: int, rows: int) -> list[tuple[list[float], list[float], list[float]]]:
    """Rows m = rows..1 of the contracted fraction for each count, last row first.

    With a = n - x, p = a + 2m and e = (n + 1) u - x,

        1 / K = beta_0 + gamma_1 / (beta_1 + gamma_2 / (beta_2 + ...)),
        beta_0 = e / (a + 1),
        beta_m = (2m (m + a)(1 + u) + (a - 1) e) / (p^2 - 1),
        gamma_m = m (x + 1 - m)(a + m - 1)(n + m)(1 - u)^2 / (p (p - 2)(p - 1)^2).

    Near the root e > 0, so every term is positive and the fraction is
    summed without cancellation.  gamma_{x+1} = 0 ends it, so a count gets
    at most x rows.  A row holds what does not depend on u, with beta_m
    divided by 1 + u and gamma_m by (1 + u)^2, which divides the part
    after beta_0 by 1 + u: 2m (m + a) / (p^2 - 1), (a - 1) / (p^2 - 1) and
    gamma_m's factor before (1 - u)^2.
    """
    m = np.arange(float(rows), 0.0, -1.0)
    xs = x.astype(float)[:, None]
    a = n - xs
    p = a + 2.0 * m
    den = p * p - 1.0
    s = 2.0 * m * (m + a) / den
    r = (a - 1.0) / den
    g = m * (xs + 1.0 - m) * (a + m - 1.0) * (n + m) / (p * (p - 2.0) * (p - 1.0) ** 2)
    return [(sk[-k:], rk[-k:], gk[-k:]) if k < rows else (sk, rk, gk)
            for k, sk, rk, gk in zip(x.tolist(), s.tolist(), r.tolist(), g.tolist())]


def _reciprocal_k(x: int, u: float, q: float, e: float, a: int,
                  rows: tuple[list[float], list[float], list[float]]) -> float | None:
    """1 / K at u from the rows (see _cf_rows), or None when they are too few to converge.

    t sums the part after beta_0 up to the last row and s up to the one
    before it (an infinite tail there makes that row's term 0).  With
    positive terms the two bracket the limit, so their agreement bounds the
    error; rows that reach m = x end the fraction exactly.
    """
    up1 = 1.0 + u
    e1 = e / up1
    w = q * q / (up1 * up1)
    t, s = 0.0, math.inf
    for sm, rm, gm in zip(*rows):
        beta = sm + rm * e1
        gamma = gm * w
        t = gamma / (beta + t)
        s = gamma / (beta + s)
    g = e / (a + 1) + up1 * t
    if len(rows[0]) < x and abs(t - s) * up1 > _CF_REL * g:
        return None
    return g


def _stirlerr(k: int) -> float:
    """ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for an integer k >= 1."""
    if k <= len(_STIRLERR_SMALL):
        return _STIRLERR_SMALL[k - 1]
    # Stirling series B_2j / (2j (2j - 1) k^(2j-1)), j = 1..8: at k >= 10 the next term is below 2e-18
    nn = 1.0 / (k * k)
    return (1 / 12 - nn * (1 / 360 - nn * (1 / 1260 - nn * (1 / 1680 - nn * (
        1 / 1188 - nn * (691 / 360360 - nn * (1 / 156 - nn * 3617 / 122400))))))) / k


def _bd0(x: float, m: float, d: float) -> float:
    """Loader's deviance x ln(x / m) + m - x, given d = x - m computed without cancellation."""
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) - d
    v = d / (x + m)
    v2 = v * v
    s, term, j = d * v, 2.0 * x * v, 3.0
    while True:
        term *= v2
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2.0


def _start(x: int, n: int, z: float) -> float:
    """Paulson's cube-root approximation to the F quantile; NaN where it fails."""
    s1, s2 = 1.0 / (9.0 * (x + 1)), 1.0 / (9.0 * (n - x))
    den = (1.0 - s2) ** 2 - z * z * s2
    disc = (1.0 - s1) ** 2 * s2 + (1.0 - s2) ** 2 * s1 - z * z * s1 * s2
    if den <= 0.0 or disc < 0.0:
        return math.nan
    f = (x + 1) * (((1.0 - s1) * (1.0 - s2) + z * math.sqrt(disc)) / den) ** 3
    return f / (n - x + f)


def _normal_quantile(c: float) -> float:
    """z with P(N(0, 1) > z) = 1 - c, for c >= 1/2.

    Abramowitz & Stegun 26.2.23 (|error| < 4.5e-4), then one Halley step
    on erfc, which leaves an error near 1e-10: large counts then start
    within about 1e-7 of their limit.
    """
    t = math.sqrt(-2.0 * math.log(1.0 - c))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    d = (0.5 * math.erfc(z / math.sqrt(2.0)) - (1.0 - c)) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return z + d / (1.0 - 0.5 * z * d)
