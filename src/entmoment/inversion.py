"""Recover a real spectrum from its power sums.

Newton's identities turn power sums p_m = sum_i x_i^m into the elementary
symmetric polynomials, whose monic polynomial has the x_i as roots.  Run
naively in float64 this is fragile twice over: repeated roots split through
the companion matrix as eps^(1/multiplicity), and tightly clustered spectra
lose their configuration signal to catastrophic cancellation when the
polynomial is centered.  The engine here therefore

1. performs the centering shift, a power-of-two rescale and the Newton
   recursion exactly, on Python integers graded by moment order (floats are
   exact binary rationals; callers with exactly known moments pass Fractions),
2. roots the standardized polynomial via the companion matrix,
3. selects a multiplicity structure by weighted least squares against the
   moments: for each cluster count, coarsest first, the sorted roots are
   split at their widest gaps (single linkage; each count adds one cut to
   the previous partition); one plain-float screen of the cluster means
   skips every count some moment rules out, and each survivor gets a
   multiplicity-constrained Gauss-Newton pass started from those means.
   The first structure whose residual sits at the rounding floor wins.

Moments that no real spectrum explains (finite-shot estimates) fall through
to the raw projected roots with flags, never an exception; a non-positive
second central moment comes back as the mean, unflagged, for now.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import factorial
from operator import add, mul
from typing import NamedTuple

import numpy as np

from . import _real

_EPS = float(np.finfo(float).eps)

#: input rounding slack, in units of eps * |p_m|, granted to float moments
_FLOAT_NOISE_FACTOR = 64.0

#: accepted residual, in units of the propagated noise floor
_ACCEPT_FACTOR = 8.0

#: below this spread, times max(1, |mean|), all values are reported as their mean
_DEGENERATE_SPREAD = 1e-8

#: screen value, in units of the weights, above which a structure is skipped
_SCREEN_CUT = 1e6

#: Gauss-Newton steps per candidate structure
_GAUSS_NEWTON_ITERS = 12

#: imaginary residual (original units) above which raw roots are flagged complex
_IMAG_GUARD = 1e-6

COMPLEX_ROOTS_FLAG = "complex-roots"


class SpectrumRecovery(NamedTuple):
    """Sorted (descending) recovered values plus diagnostic flags."""

    values: np.ndarray
    flags: tuple[str, ...]


def _taylor_shift(a: list, b) -> list:
    """sum_j comb(m, j) a_j b**(m - j), m = 1..len(a) - 1: pass m of the triangle
    row[i] = row[i + 1] + b * row[i] leaves the m-th in row[0].  Integers shift
    the moments exactly; non-negative floats, which cannot cancel, their floor."""
    q = []
    for _ in range(len(a) - 1):
        a = [hi + b * lo for lo, hi in zip(a, a[1:])]
        q.append(a[0])
    return q


def _centered_setup(psums):
    """Exact shift/scale/Newton chain.

    Returns (center, scale, monic coefficients highest-first, standardized
    moments as floats, per-moment noise floor).  scale == 0.0 signals the
    all-values-equal-to-center degenerate case.
    """
    n = len(psums)
    exact_input = all(isinstance(x, Fraction) for x in psums)
    p = [(n, 1)] + [(x if isinstance(x, Fraction) else float(x)).as_integer_ratio() for x in psums]
    # the mean c = p_1 / n and the variance q_2 = p_2 - p_1**2 / n, each one
    # correctly rounded int / int, decide the degenerate return on their own
    (a1, b1), (a2, b2) = p[1], p[min(n, 2)]
    cf = a1 / (n * b1)
    q2 = (n * a2 * b1 * b1 - a1 * a1 * b2) / (n * b2 * b1 * b1) if n >= 2 else 0.0
    if q2 <= 0.0 or math.sqrt(q2 / n) < _DEGENERATE_SPREAD * max(1.0, abs(cf)):
        return cf, 0.0, None, None, None

    # p_m = a_m / b_m = P_m / G**m, P_m integers: with b_m = odd_m << twos_m, G is
    # odd << g, odd the lcm of the odd_m and g m >= twos_m; q_m = Q_m / (n G)**m
    odd, g, twos = 1, 0, [0]
    for m, (_, b) in enumerate(p[1:], 1):
        twos.append((b & -b).bit_length() - 1)
        odd, g = math.lcm(odd, b >> twos[m]), max(g, -(-twos[m] // m))
    num = [(a * odd**m // (b >> t)) << (g * m - t) for m, ((a, b), t) in enumerate(zip(p, twos))]
    q = _taylor_shift([x * n**j for j, x in enumerate(num)], -num[1])
    s = round(0.5 * math.log2(q2 / n))
    sf = 2.0**s
    # standardized moments q_m / 2**(s m) = Q_m / D**m with integers Q_m, D
    denom, q = n * (odd << g) << max(s, 0), [x << max(-s, 0) * m for m, x in enumerate(q, 1)]
    denom_pow = list(accumulate([denom] * n, mul, initial=1))

    qs = [x / y for x, y in zip(q, denom_pow[1:])]

    # Rounding floor of the standardized moments: each float input p_j
    # carries ~eps relative error which the shift amplifies by the binomial
    # weights (the Taylor shift of the |p_j| by |c|); exact Fraction inputs
    # only pay the final float conversion, and skip sf**m, which can underflow.
    noise = [_FLOAT_NOISE_FACTOR * _EPS * max(1.0, abs(x)) for x in qs]
    if not exact_input:
        shifted = _taylor_shift([abs(a / b) for a, b in p], abs(cf))
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


def _fast_skip(means: list, sizes: list, targets: list, weights: list) -> bool:
    """Whether some moment's screen value, in plain floats (powers by repeated
    multiplication, lowest moment first), is above the cut."""
    powers = sizes
    for t, w in zip(targets, weights):
        powers = [p * z for p, z in zip(powers, means)]
        if abs(sum(powers) - t) / w > _SCREEN_CUT:
            return True
    return False


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
    power_sums : sequence of float or Fraction
        The n power sums of the n sought values.  Fractions are treated as
        exact; floats carry a rounding-floor allowance.  Empty, non-real
        (bools too), non-finite or float64-overflowing input raises ValueError.

    Returns
    -------
    SpectrumRecovery
        Values sorted descending.  Flags are empty whenever some real
        spectrum reproduces the moments at their precision floor.
    """
    psums = list(power_sums)
    n = len(psums)
    if n == 0:
        raise ValueError("need at least one power sum")
    for i, x in enumerate(psums):
        if type(x) is not Fraction:  # exact, so real and finite; the ABC check would cost 0.1-0.5 us
            _real(x, f"power sum at index {i}")
    try:
        center, scale, coeffs, targets, noise = _centered_setup(psums)
    except OverflowError as exc:
        raise ValueError(f"power sums overflow float64: {exc}") from exc
    if coeffs is None:
        return SpectrumRecovery(np.full(n, center), ())

    raw = _companion_roots(coeffs)
    y = np.sort(raw.real)
    ymax = max(1.0, float(abs(y).max()))
    with np.errstate(over="ignore"):  # roots too large for float64 powers: inf weights, unwarned
        weights = _ACCEPT_FACTOR * (noise + _FLOAT_NOISE_FACTOR * _EPS * n * ymax ** np.arange(1, n + 1))

    ys, fast_targets, fast_weights = y.tolist(), targets.tolist(), weights.tolist()
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
        if _fast_skip(means, sizes, fast_targets, fast_weights):
            continue
        mult = np.array(sizes, dtype=float)
        z, res = _gauss_newton(np.array(means), mult, targets, weights)
        if res <= 1.0:
            values, flags = z.repeat(mult.astype(int)), ()
            break
    else:
        values = y
        flags = (COMPLEX_ROOTS_FLAG,) if scale * float(abs(raw.imag).max()) > _IMAG_GUARD else ()
    return SpectrumRecovery(np.sort(center + scale * values)[::-1], flags)
