"""Recover a real spectrum from its power sums.

Newton's identities turn power sums p_m = sum_i x_i^m into the elementary
symmetric polynomials, whose monic polynomial has the x_i as roots.  Run
naively in float64 this is fragile twice over: repeated roots split through
the companion matrix as eps^(1/multiplicity), and tightly clustered spectra
lose their configuration signal to catastrophic cancellation when the
polynomial is centered.  The engine here therefore

1. performs the centering shift, a power-of-two rescale and the Newton
   recursion exactly, on the integers of one :class:`~entmoment.linalg.Moments`
   record, graded by moment order (floats are exact binary rationals; the
   record's ``exact`` bit, set where it is built, says whether the moments
   are also owed a float rounding floor),
2. roots the standardized polynomial via the companion matrix,
3. selects a multiplicity structure by weighted least squares against the
   moments: for each cluster count, coarsest first, the sorted roots are
   split at their widest gaps (single linkage; each count adds one cut to
   the previous partition).  One plain-float screen of the cluster means
   skips every count some moment rules out, and accepts the means as they
   are where its worst moment sits below 0.5 weight units by more than its
   float-error bound, which is what the Gauss-Newton pass would return.
   Every other count gets a multiplicity-constrained Gauss-Newton pass
   started from those means.  The first structure whose residual sits at
   the rounding floor wins.

Moments that no real spectrum explains (finite-shot estimates) fall through
to the raw projected roots with flags, never an exception; a non-positive
second central moment q2 comes back as the mean, flagged infeasible when
q2 < 0 (exactly, or below minus its rounding floor for float moments).
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from itertools import accumulate
from math import factorial
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .linalg import Moments

_EPS = float(np.finfo(float).eps)

#: input rounding slack, in units of eps * |p_m|, granted to float moments
_FLOAT_NOISE_FACTOR = 64.0

#: accepted residual, in units of the propagated noise floor
_ACCEPT_FACTOR = 8.0

#: below this spread, times max(1, |mean|), all values are reported as their mean
_DEGENERATE_SPREAD = 1e-8

#: screen value, in units of the weights, above which a structure is skipped
_SCREEN_CUT = 1e6

#: eps / 2 of n * ymax**m, the most one rounding of a moment's terms costs, in
#: units of its smallest weight _ACCEPT_FACTOR * _FLOAT_NOISE_FACTOR * eps * n * ymax**m
_ROUNDING = 0.5 / (_ACCEPT_FACTOR * _FLOAT_NOISE_FACTOR)

#: Gauss-Newton steps per candidate structure
_GAUSS_NEWTON_ITERS = 12

#: imaginary residual (original units) above which raw roots are flagged complex
_IMAG_GUARD = 1e-6

COMPLEX_ROOTS_FLAG = "complex-roots"
INFEASIBLE_MOMENTS_FLAG = "infeasible-moments"


class SpectrumRecovery(NamedTuple):
    """Sorted (descending) recovered values plus diagnostic flags."""

    values: np.ndarray
    flags: tuple[str, ...]


def _taylor_shift(a: list, b) -> list:
    """sum_j comb(m, j) a_j b**(m - j), m = 1..len(a) - 1: pass m of the triangle
    row[i] = row[i + 1] + b * row[i] leaves the m-th in row[0].  Integers shift
    the moments exactly; non-negative floats, which cannot cancel, their floor.
    Pass m + 1 adds b times entry m, so past an overflowed float entry every
    entry is inf; for b < 1 a later one can fit, so those entries are redone
    on a / 2**len(a), where no sum passes max(a) (1 + b)**m / 2**len(a)."""
    def entries(row):
        for _ in range(len(a) - 1):
            row = [hi + b * lo for lo, hi in zip(row, row[1:])]
            yield row[0]
    q = list(entries(a))
    if b < 1 and q[-1] == math.inf:
        i, s = q.index(math.inf), 2.0 ** len(a)
        q[i:] = [x * s for x in list(entries([x / s for x in a]))[i:]]
    return q


def _centered_setup(moments: Moments):
    """Exact shift/scale/Newton chain on a moment record.

    Returns (center, scale, monic coefficients highest-first, standardized
    moments as floats, per-moment noise floor).  scale == 0.0 signals the
    all-values-equal-to-center degenerate case.
    """
    # p_m = P_m / G**m, P_m integers (P_0 = n), q_m = Q_m / (n G)**m
    n, den = len(moments), moments.grade
    num = [n, *moments.ints]
    # the mean c = p_1 / n and the variance q_2 = p_2 - p_1**2 / n, each one
    # correctly rounded int / int, decide the degenerate return on their own
    cf = num[1] / (n * den)
    q2 = (n * num[2] - num[1] * num[1]) / (n * den * den) if n >= 2 else 0.0
    if q2 <= 0.0 or math.sqrt(q2 / n) < _DEGENERATE_SPREAD * max(1.0, abs(cf)):
        return cf, 0.0, None, None, None

    q = _taylor_shift([x * n**j for j, x in enumerate(num)], -num[1])
    s = round(0.5 * math.log2(q2 / n))
    sf = 2.0**s
    # standardized moments q_m / 2**(s m) = Q_m / D**m with integers Q_m, D
    denom, q = n * den << max(s, 0), [x << max(-s, 0) * m for m, x in enumerate(q, 1)]
    denom_pow = list(accumulate([denom] * n, mul, initial=1))

    qs = [x / y for x, y in zip(q, denom_pow[1:])]

    # Rounding floor of the standardized moments: each float input p_j
    # carries ~eps relative error which the shift amplifies by the binomial
    # weights (the Taylor shift of the |p_j| by |c|); exact inputs only pay
    # the final float conversion, and skip sf**m, which can underflow.
    noise = [_FLOAT_NOISE_FACTOR * _EPS * max(1.0, abs(x)) for x in qs]
    if not moments.exact:
        shifted = _taylor_shift([float(n), *map(abs, moments.floats())], abs(cf))
        noise = [x * (_FLOAT_NOISE_FACTOR * _EPS / sf**m) + f for m, (x, f) in enumerate(zip(shifted, noise), 1)]

    # Newton's identities with e_k = E_k / (k! D**k), f = (-1)**(i-1) (k-1)!/(k-i)!
    e = [1]
    for k in range(1, n + 1):
        acc, f = 0, 1
        for i in range(1, k + 1):
            acc, f = acc + f * e[k - i] * q[i - 1], f * (i - k)
        e.append(acc)
    coeffs = [(-x if k % 2 else x) / (factorial(k) * y) for k, (x, y) in enumerate(zip(e, denom_pow))]
    return cf, sf, coeffs, np.array(qs), np.array(noise)


def _infeasible(moments: Moments, c: float) -> bool:
    """q2 < 0, which no real spectrum has, on the degenerate return (mean c): from
    the integers n P_2 - P_1**2 on exact input; on float input, below minus the
    m = 2 floor entry, 64 eps (|p_2| + 2 |c| |p_1| + n c**2)."""
    n, den, num = len(moments), moments.grade, moments.ints
    nq2 = n * num[1] - num[0] * num[0] if n >= 2 else 0
    return nq2 < 0 and (moments.exact or nq2 / (n * den * den) < -_FLOAT_NOISE_FACTOR * _EPS * _taylor_shift(
        [float(n), abs(num[0] / den), abs(num[1] / (den * den))], abs(c))[1])


def _power_table(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z**m, m = 0..n."""
    pw = z ** np.arange(n + 1)[:, None]
    if n >= 2:
        # the scalar exponent takes numpy's square fast path, which can
        # differ from pow() in the last bit
        pw[2] = z**2
    return pw


def _mean(xs: list) -> float:
    """Left-to-right mean, the same on every Python (sum() compensates from 3.12)."""
    return reduce(add, xs, 0.0) / len(xs)


def _screen(means: list, sizes: list, targets: list, weights: list) -> float:
    """The worst moment's |sum_i s_i z_i**m - t_m| / w_m in plain floats
    (powers by repeated multiplication, lowest moment first).  The first
    value above the cut returns at once.  A nan comes from an infinite power,
    which stays infinite, so every later value is nan or infinite: once in,
    the nan stays the worst, and it neither skips nor accepts."""
    worst, powers = 0.0, sizes
    for t, w in zip(targets, weights):
        powers = [p * z for p, z in zip(powers, means)]
        value = abs(sum(powers) - t) / w
        if value > _SCREEN_CUT:
            return value
        if not value <= worst:
            worst = value
    return worst


def _accept_below(n: int, ymax: float) -> float:
    """Screen value below which _gauss_newton's first residual is below 0.5.

    Both evaluate the same floats: at moment m with k clusters the screen
    rounds m products per term and makes k - 1 additions; _gauss_newton
    takes each power with pow (4 ulp allowed, 8 roundings), multiplies by
    the multiplicity and makes k - 1 additions.  Each rounding is at most
    eps / 2 of the terms' magnitudes, which sum to at most n * ymax**m (a
    mean lies within its roots), while the weight is at least
    _ACCEPT_FACTOR * _FLOAT_NOISE_FACTOR * eps * n * ymax**m: one costs at
    most _ROUNDING weight units.  With m, k <= n the two values differ by at
    most 3 n + 7 of them; two more cover the relative roundings of the value
    and of the weights.  The bound needs every term in float range, n *
    ymax**n below 2**1023; past that nothing is accepted (no value is below 0).
    """
    if math.log2(n) + n * math.log2(ymax) >= 1023:
        return 0.0
    return 0.5 - (3 * n + 9) * _ROUNDING


def _companion_roots(coeffs: list) -> np.ndarray:
    """np.roots of monic coefficients (highest first) without its wrapper: the
    same companion matrix, eigvals call and zero roots for trailing zeros."""
    degree = len(coeffs) - 1
    while degree and coeffs[degree] == 0:
        degree -= 1
    companion = np.eye(degree, k=-1)
    companion[:1] = [-c for c in coeffs[1:degree + 1]]
    roots = np.linalg.eigvals(companion)
    if degree == len(coeffs) - 1:
        return roots
    return np.concatenate((roots, np.zeros(len(coeffs) - 1 - degree, roots.dtype)))


def _gauss_newton(z0, mult, targets, weights):
    """Refine distinct values z (with multiplicities) against the moments."""
    z = z0.astype(float)
    n = len(targets)
    best, best_res = z.copy(), math.inf
    # a diverging candidate or a non-finite step gives non-finite powers: it stops
    # before lstsq, which would raise on non-finite input; the best one so far is kept
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(_GAUSS_NEWTON_ITERS + 1):  # the last pass only evaluates
            pw = _power_table(z, n)
            r = ((mult * pw[1:]).sum(axis=1) - targets) / weights
            res = float(abs(r).max())
            if res < best_res:
                best_res, best = res, z.copy()
            if res < 0.5 or i == _GAUSS_NEWTON_ITERS:
                break
            jac = np.arange(1, n + 1)[:, None] * mult * pw[:-1] / weights[:, None]
            if not (np.isfinite(jac).all() and np.isfinite(r).all()):
                break
            step, *_ = np.linalg.lstsq(jac, r, rcond=None)
            z = z - step
    return best, best_res


def spectrum_from_power_sums(power_sums) -> SpectrumRecovery:
    """Invert p_m = sum_i x_i^m, m = 1..n, for the n real values x_i.

    Parameters
    ----------
    power_sums : Moments, or a sequence of real numbers
        The n power sums of the n sought values, through :meth:`Moments.of`:
        an exact record is inverted exactly, an inexact one carries a
        rounding-floor allowance.  Empty, non-real (bools too), non-finite
        or float64-overflowing input raises ValueError.

    Returns
    -------
    SpectrumRecovery
        Values sorted descending.  Flags are empty whenever some real
        spectrum reproduces the moments at their precision floor.
    """
    moments = Moments.of(power_sums)
    n = len(moments)
    if n == 0:
        raise ValueError("need at least one power sum")
    try:
        center, scale, coeffs, targets, noise = _centered_setup(moments)
    except OverflowError as exc:
        raise ValueError(f"power sums overflow float64: {exc}") from exc
    if coeffs is None:
        return SpectrumRecovery(np.full(n, center), (INFEASIBLE_MOMENTS_FLAG,) if _infeasible(moments, center) else ())

    raw = _companion_roots(coeffs)
    y = np.sort(raw.real)
    ymax = max(1.0, float(abs(y).max()))
    with np.errstate(over="ignore"):  # roots too large for float64 powers: inf weights, unwarned
        weights = _ACCEPT_FACTOR * (noise + _FLOAT_NOISE_FACTOR * _EPS * n * ymax ** np.arange(1, n + 1))

    ys, fast_targets, fast_weights, accept = y.tolist(), targets.tolist(), weights.tolist(), _accept_below(n, ymax)
    bounds, sizes, means = [0, n], [n], [_mean(ys)]
    # single linkage: n_clusters groups split the sorted roots at their widest
    # gaps; each count adds one cut to the previous split
    for cut in [0] + ((-(y[1:] - y[:-1])).argsort(kind="stable") + 1).tolist():
        if cut:
            i = bisect.bisect(bounds, cut)
            a, b = bounds[i - 1], bounds[i]
            bounds.insert(i, cut)
            sizes[i - 1:i] = [cut - a, b - cut]
            means[i - 1:i] = [_mean(ys[a:cut]), _mean(ys[cut:b])]
        value = _screen(means, sizes, fast_targets, fast_weights)
        if value > _SCREEN_CUT:
            continue
        if value < accept:  # what _gauss_newton returns from a first residual below 0.5
            values, flags = np.array(means).repeat(sizes), ()
            break
        mult = np.array(sizes, dtype=float)
        z, res = _gauss_newton(np.array(means), mult, targets, weights)
        if res <= 1.0:
            values, flags = z.repeat(mult.astype(int)), ()
            break
    else:
        values = y
        flags = (COMPLEX_ROOTS_FLAG,) if scale * float(abs(raw.imag).max()) > _IMAG_GUARD else ()
    return SpectrumRecovery(np.sort(center + scale * values)[::-1], flags)
