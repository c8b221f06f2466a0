"""Power-sum spectrum recovery: round trips, degeneracies, noisy input."""

import math
import sys
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmoment import inversion, protocols, sampling, states
from entmoment.inversion import SpectrumRecovery, spectrum_from_power_sums
from entmoment.linalg import Moments
from entmoment.states import rng_stream


def power_sums_of(values, n):
    values = np.asarray(values, dtype=float)
    return [float(np.sum(values**m)) for m in range(1, n + 1)]


def test_single_value():
    rec = spectrum_from_power_sums([0.7])
    np.testing.assert_allclose(rec.values, [0.7], atol=0)


def test_bell_pattern_exact():
    rec = spectrum_from_power_sums([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(rec.values, [1, 0, 0, 0], atol=1e-12)
    assert rec.flags == ()


def test_all_equal_exact():
    rec = spectrum_from_power_sums(power_sums_of([0.0625] * 4, 4))
    np.testing.assert_allclose(rec.values, [0.0625] * 4, atol=1e-12)


def test_round_trip_random():
    rng = rng_stream(400, 0)
    for _ in range(300):
        lam = np.sort(rng.uniform(0, 1, 4))[::-1]
        rec = spectrum_from_power_sums(power_sums_of(lam, 4))
        np.testing.assert_allclose(rec.values, lam, atol=1e-8)
        assert rec.flags == ()


REPEAT_PATTERNS = ("pair", "triple", "two-pairs", "quad")


@pytest.mark.parametrize("pattern", REPEAT_PATTERNS)
def test_round_trip_with_repeats(pattern):
    # a fixed stream per pattern: hash() of a str changes with PYTHONHASHSEED
    rng = rng_stream(401, REPEAT_PATTERNS.index(pattern))
    for _ in range(100):
        draws = rng.uniform(0, 1, 3)
        if pattern == "pair":
            lam = np.array([draws[0], draws[0], draws[1], draws[2]])
        elif pattern == "triple":
            lam = np.array([draws[0]] * 3 + [draws[1]])
        elif pattern == "two-pairs":
            lam = np.array([draws[0], draws[0], draws[1], draws[1]])
        else:
            lam = np.array([draws[0]] * 4)
        lam = np.sort(lam)[::-1]
        rec = spectrum_from_power_sums(power_sums_of(lam, 4))
        np.testing.assert_allclose(rec.values, lam, atol=1e-8)


def test_round_trip_degree_nine_exact_input():
    rng = rng_stream(402, 0)
    for _ in range(10):
        lam = np.sort(rng.uniform(0.05, 0.35, 9))[::-1]
        psums = [Fraction(0) for _ in range(9)]
        for m in range(1, 10):
            psums[m - 1] = sum(Fraction(float(x)) ** m for x in lam)
        rec = spectrum_from_power_sums(psums)
        np.testing.assert_allclose(rec.values, lam, atol=1e-9)
        assert rec.flags == ()


def test_tight_cluster_collapses_within_spread():
    # distinct values separated by less than the resolvable gap are reported
    # inside their cluster: never exactly, never further off than the spread
    lam = np.array([0.2, 0.2 + 3e-6, 0.2 + 7e-6, 0.9])
    psums = [sum(Fraction(float(x)) ** m for x in lam) for m in range(1, 5)]
    rec = spectrum_from_power_sums(psums)
    np.testing.assert_allclose(rec.values, np.sort(lam)[::-1], atol=2e-5)


def test_noisy_moments_flagged_not_fatal():
    # genuinely inconsistent moments: projected estimate plus a flag
    rec = spectrum_from_power_sums([1.02, 0.96, 1.05, 0.9])
    assert len(rec.values) == 4
    assert np.all(np.isfinite(rec.values))
    assert "complex-roots" in rec.flags


def test_mildly_noisy_moments_still_real():
    lam = np.array([0.6, 0.3, 0.08, 0.02])
    psums = np.array(power_sums_of(lam, 4))
    psums = psums + np.array([1e-5, -2e-5, 1.5e-5, -1e-5])
    rec = spectrum_from_power_sums(list(psums))
    assert np.all(np.isfinite(rec.values))
    np.testing.assert_allclose(rec.values, lam, atol=5e-3)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        spectrum_from_power_sums([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("psums, index", [([1.0, 0.5, 0.3, 0.2], 0), ([1.0, 0.5, 0.3, 0.2], 2), ([1.0], 0)])
def test_non_finite_moments_rejected_with_index(bad, psums, index):
    psums = list(psums)
    psums[index] = bad
    with pytest.raises(ValueError, match=f"^power sum at index {index} must be a finite real number, got {bad!r}$"):
        spectrum_from_power_sums(psums)


@pytest.mark.parametrize("psums", [[1.0, 1e300, 1e300], [1.0, 0.5, 1e308, 1e308],
                                   [1.0, 10**400], [10**400]])
def test_moments_overflowing_the_chain_rejected(psums):
    with pytest.raises(ValueError, match="overflow"):
        spectrum_from_power_sums(psums)


# Reference: the exhaustive per-composition search the gap split replaced.  It
# shares the exact set-up and the Gauss-Newton pass with the library and
# additionally returns every screen value it computed.

def reference_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in reference_compositions(n - first, parts - 1):
            yield (first,) + rest


def reference_weights(y, noise):
    n = len(y)
    ymax = max(1.0, float(np.max(np.abs(y))))
    return inversion._ACCEPT_FACTOR * (
        noise + inversion._FLOAT_NOISE_FACTOR * inversion._EPS * n * ymax ** np.arange(1, n + 1))


def power_sums(z, mult, n):
    """sum_i mult_i z_i**m, m = 1..n, the way _gauss_newton forms its residual."""
    return (mult * inversion._power_table(z, n)[1:]).sum(axis=1)


def reference_split(y, targets, weights, sizes):
    """(start values, multiplicities, screen value) of one contiguous split."""
    bounds = np.cumsum((0,) + sizes)
    mult = np.array(sizes, dtype=float)
    z0 = np.array([y[bounds[i]:bounds[i + 1]].mean() for i in range(len(sizes))])
    return z0, mult, np.max(np.abs(power_sums(z0, mult, len(y)) - targets) / weights)


def reference_spectrum_from_power_sums(psums):
    psums = list(psums)
    n = len(psums)
    center, scale, coeffs, targets, noise = inversion._centered_setup(Moments.of(psums))
    if coeffs is None:
        return SpectrumRecovery(np.full(n, center), ()), []
    raw = np.roots(coeffs)
    y = np.sort(raw.real)
    weights = reference_weights(y, noise)
    screens = []
    for n_clusters in range(1, n + 1):
        candidates = []
        for sizes in reference_compositions(n, n_clusters):
            z0, mult, init = reference_split(y, targets, weights, sizes)
            screens.append(init)
            if init > 1e6:
                continue
            z, res = inversion._gauss_newton(z0, mult, targets, weights)
            if res <= 1.0:
                candidates.append((res, z, mult))
        if candidates:
            res, z, mult = min(candidates, key=lambda t: t[0])
            values = np.repeat(z, mult.astype(int))
            return SpectrumRecovery(np.sort(center + scale * values)[::-1], ()), screens
    flags = []
    if scale * float(np.max(np.abs(raw.imag))) > 1e-6:
        flags.append(inversion.COMPLEX_ROOTS_FLAG)
    return SpectrumRecovery(np.sort(center + scale * y)[::-1], tuple(flags)), screens


def assert_matches_reference(psums):
    expected, screens = reference_spectrum_from_power_sums(psums)
    got = spectrum_from_power_sums(psums)
    assert got.flags == expected.flags
    assert got.values.tobytes() == expected.values.tobytes()
    return screens


def werner_qudit(d, p):
    """p P_anti / dim_anti + (1-p) P_sym / dim_sym on d (x) d."""
    swap = np.eye(d * d)[[(i % d) * d + i // d for i in range(d * d)]]
    anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    m = p * anti / (d * (d - 1) / 2) + (1 - p) * sym / (d * (d + 1) / 2)
    return states.DensityMatrix(m, (d, d))


def channel_family_states(d):
    rng = rng_stream(403, d)
    bell = states.bell_state() if d == 2 else states.isotropic_state(d, 1.0)
    werner = states.werner_state(0.7) if d == 2 else werner_qudit(d, 0.7)
    return {"bell": bell, "werner": werner, "isotropic": states.isotropic_state(d, 0.4),
            "product-pure": states.product_pure_state((d, d), rng)}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gap_split_matches_reference_on_channel_moments(d):
    for state in channel_family_states(d).values():
        assert_matches_reference(protocols.spectrum_power_sums(state))


@pytest.mark.parametrize("d", [3, 4])
def test_gap_split_matches_reference_on_random_mixed(d):
    cases = [states.random_mixed_state((d, d), rng_stream(404, d))]
    if d == 4:
        # a random-pure state whose winning structure merges two eigenvalues
        cases.append(states.random_pure_state((4, 4), rng_stream(32, 0)))
    for state in cases:
        assert_matches_reference(protocols.spectrum_power_sums(state))


def test_gap_split_matches_reference_on_sampled_moments():
    rng = rng_stream(405, 0)
    for shots in (10**2, 10**4, 10**6):
        for seed in range(4):
            state = states.random_mixed_state((3, 3), rng)
            run = sampling.run_spectrum_protocol(state, shots=shots, seed=seed, mode="sampled")
            assert_matches_reference([1.0] + [2.0 * r.estimate - 1.0 for r in run.samples])


def test_batched_screen_keeps_splits_near_the_cut():
    # values 0.80202 (x3) and 0.80320 (x2): the winning structure starts from
    # splits that screen between 2e5 and 7e5, inside 10x of the 1e6 cut
    psums = [4.012458942155872, 3.2199670234968156, 2.5839997776964756,
             2.073641832195769, 1.6640839982948734]
    screens = assert_matches_reference(psums)
    assert any(1e5 <= v <= 1e6 for v in screens)
    assert spectrum_from_power_sums(psums).flags == ()


# Reference: the Fraction chain that the graded-integer _centered_setup
# replaced; the float floor is written out as the additions-only Taylor
# triangle, whose rounding order the set-up's floor follows bit for bit.

def reference_centered_setup(psums):
    n = len(psums)
    exact_input = all(isinstance(x, Fraction) for x in psums)
    p = [Fraction(n)] + [x if isinstance(x, Fraction) else Fraction(float(x)) for x in psums]
    c = p[1] / n
    cf = float(c)

    q = []
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(0, m + 1):
            acc += comb(m, j) * p[j] * (-c) ** (m - j)
        q.append(acc)

    q2 = float(q[1]) if n >= 2 else 0.0
    if q2 <= 0.0 or math.sqrt(q2 / n) < inversion._DEGENERATE_SPREAD * max(1.0, abs(cf)):
        return cf, 0.0, None, None, None
    scale = Fraction(2) ** round(0.5 * math.log2(q2 / n))
    sf = float(scale)

    qs = np.array([float(q[m - 1] / scale**m) for m in range(1, n + 1)])

    noise = np.empty(n)
    row = [abs(float(x)) for x in p]
    for m in range(1, n + 1):
        propagated = 0.0
        if not exact_input:
            # pass m of the triangle: row[0] is sum_j comb(m, j) |p_j| |c|**(m - j)
            row = [row[i + 1] + abs(cf) * row[i] for i in range(len(row) - 1)]
            propagated = row[0] * (inversion._FLOAT_NOISE_FACTOR * inversion._EPS / sf**m)
        noise[m - 1] = propagated + inversion._FLOAT_NOISE_FACTOR * inversion._EPS * max(1.0, abs(qs[m - 1]))

    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * (q[i - 1] / scale**i)
        e.append(acc / k)
    coeffs = [float((-1) ** k * e[k]) for k in range(n + 1)]
    return cf, sf, coeffs, qs, noise


def setup_bits(setup, psums):
    """The five set-up outputs as bytes (None stays None), or the overflow."""
    try:
        out = setup(psums)
    except OverflowError:
        return "overflow"
    return [None if v is None else np.asarray(v, dtype=float).tobytes() for v in out]


def assert_setup_matches_reference(psums):
    expected = setup_bits(reference_centered_setup, psums)
    assert setup_bits(lambda p: inversion._centered_setup(Moments.of(p)), psums) == expected
    return expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_integer_chain_matches_fraction_chain_on_channel_moments(d):
    family = channel_family_states(d)
    family["random-mixed"] = states.random_mixed_state((d, d), rng_stream(407, d))
    for state in family.values():
        assert assert_setup_matches_reference(protocols.spectrum_power_sums(state))[2] is not None


def test_integer_chain_matches_fraction_chain_on_ladder_fractions():
    rng = rng_stream(408, 0)
    for state in (states.bell_state(), states.werner_state(0.7), states.random_mixed_state((2, 2), rng),
                  states.product_pure_state((2, 2), rng)):
        assert_setup_matches_reference(protocols.exact_moment_fractions(state))


def test_integer_chain_matches_fraction_chain_on_sampled_moments():
    rng = rng_stream(409, 0)
    for shots in (10**2, 10**4, 10**6):
        for seed in range(3):
            run = sampling.run_spectrum_protocol(states.random_mixed_state((3, 3), rng), shots=shots, seed=seed)
            assert_setup_matches_reference([1.0] + [2.0 * r.estimate - 1.0 for r in run.samples])
            ladder = sampling.run_concurrence_protocol(states.random_mixed_state((2, 2), rng), shots, seed)
            assert_setup_matches_reference(list(ladder.moments))


@pytest.mark.parametrize("psums", [
    [Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 9)],
    [Fraction(3, 5), Fraction(1, 3), Fraction(2, 7), Fraction(5, 21), Fraction(1, 6)],
    [Fraction(1), 0.3, Fraction(2, 7), 0.125],
    [Fraction(1, 3), Fraction(1, 3)],
])
def test_integer_chain_matches_fraction_chain_on_non_dyadic_fractions(psums):
    assert assert_setup_matches_reference(psums)[2] is not None


def test_integer_chain_matches_fraction_chain_on_negative_centers():
    lam = [-0.7, -0.2, -0.05, 0.1]
    assert_setup_matches_reference(power_sums_of(lam, 4))
    assert_setup_matches_reference([sum(Fraction(x) ** m for x in lam) for m in range(1, 5)])
    assert_setup_matches_reference(power_sums_of([-3.0, -2.5, -2.5, -1e-3, -40.0], 5))


@pytest.mark.parametrize("psums", [
    [0.7], [Fraction(2, 3)], power_sums_of([0.0625] * 4, 4), [4 * Fraction(1, 4) ** m for m in range(1, 5)],
    [1, -5, 3, 0.5], [1.0, 0.0, 0.0], [Fraction(1), Fraction(-1, 3), Fraction(1, 7)], [0.0, 0.0, 0.0, 0.0],
])
def test_integer_chain_matches_fraction_chain_on_degenerate_returns(psums):
    assert assert_setup_matches_reference(psums)[2] is None


moment_floats = st.one_of(st.floats(-4, 4), st.floats(allow_nan=False, allow_infinity=False))
moment_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=10**6)


# the power sums of a real spectrum take the whole chain, to n = 25
spectrum_power_sums = st.integers(2, 25).flatmap(lambda n: st.lists(st.floats(-1, 1), min_size=n, max_size=n)).map(
    lambda lam: [sum(x**m for x in lam) for m in range(1, len(lam) + 1)])


# n = 25 is the length of d = 5 sampled moments.  The example budget comes
# from the hypothesis profile (--hypothesis-profile=ci runs more).
@settings(deadline=None)
@example(power_sums_of(np.linspace(-0.9, 0.9, 25), 25))
@example(power_sums_of([0.3] * 12 + [0.02 * i for i in range(13)], 25))
@given(st.one_of(st.lists(moment_floats, min_size=1, max_size=25),
                 st.lists(moment_fractions, min_size=1, max_size=25),
                 st.lists(st.one_of(moment_floats, moment_fractions), min_size=1, max_size=25),
                 spectrum_power_sums))
def test_integer_chain_matches_fraction_chain_property(psums):
    assert_setup_matches_reference(psums)


# Reference: the binomial sums the additions-only Taylor shift replaced, and
# the Gauss-Newton pass with its closing evaluation on every exit.

def reference_taylor_shift(a, b):
    shift = [b**i for i in range(len(a))]
    return [sum(comb(m, j) * a[j] * shift[m - j] for j in range(m + 1)) for m in range(1, len(a))]


def shift_inputs(psums):
    """The (a, b) pairs that _centered_setup hands to _taylor_shift for psums:
    the graded integer moments, then, for float input, the float magnitudes
    of its rounding floor.  None where it returns degenerate (or overflows)
    before the shift."""
    seen, real = [], inversion._taylor_shift
    inversion._taylor_shift = lambda a, b: seen.append((a, b)) or real(a, b)
    try:
        out = inversion._centered_setup(Moments.of(psums))
    except OverflowError:
        out = None
    finally:
        inversion._taylor_shift = real
    if not seen:
        # the mean and variance alone decide the degenerate return
        assert out is None or out[2] is None
        return None
    # exact input skips the floor; an overflow can stop float input before it
    assert len(seen) <= 2 and (out is None or len(seen) == 2 - all(isinstance(x, Fraction) for x in psums))
    return seen


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(moment_floats, min_size=1, max_size=16),
                 st.lists(moment_fractions, min_size=1, max_size=16)))
def test_taylor_shift_matches_binomial_sums(psums):
    inputs = shift_inputs(psums)
    if inputs is None:
        return
    (a, b), *floor = inputs
    assert len(a) == len(psums) + 1
    assert inversion._taylor_shift(a, b) == reference_taylor_shift(a, b)
    # the float call: m passes of one product and one sum per entry, every term
    # non-negative, so no cancellation (m eps); a product below the normal range
    # may also lose 2**-1075, carried by weights summing to at most (1 + b)**m
    # per pass.  The slack doubles both bounds.
    for a, b in floor:
        exact = reference_taylor_shift([Fraction(x) for x in a], Fraction(b))
        for m, (got, want) in enumerate(zip(inversion._taylor_shift(a, b), exact), 1):
            slack = 2 * m * Fraction(inversion._EPS) * want + m * Fraction(2) ** -1074 * (1 + Fraction(b)) ** m
            if math.isinf(got):
                assert want + slack > Fraction(sys.float_info.max)
            else:
                assert abs(Fraction(got) - want) <= slack


def reference_gauss_newton(z0, mult, targets, weights):
    z = z0.astype(float).copy()
    n = len(targets)
    ms = np.arange(1, n + 1)[:, None]
    best, best_res = z.copy(), math.inf
    for _ in range(inversion._GAUSS_NEWTON_ITERS):
        pw = inversion._power_table(z, n)
        r = ((mult * pw[1:]).sum(axis=1) - targets) / weights
        res = float(np.max(np.abs(r)))
        if res < best_res:
            best_res, best = res, z.copy()
        if res < 0.5:
            break
        jac = ms * mult * pw[:-1]
        step, *_ = np.linalg.lstsq(jac / weights[:, None], r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        z = z - step
    r = (power_sums(z, mult, n) - targets) / weights
    res = float(np.max(np.abs(r)))
    if res < best_res:
        best_res, best = res, z
    return best, best_res


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gauss_newton_matches_closing_evaluation_reference(data):
    # weights from 1e-12 (the loop runs out) to 1e3 (it stops at once)
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, n))
    z0 = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k)))
    mult = np.array(data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)), dtype=float)
    targets = np.array(data.draw(st.lists(st.floats(-20, 20), min_size=n, max_size=n)))
    weights = np.full(n, 10.0 ** data.draw(st.integers(-12, 3)))
    (z, res), (z_ref, res_ref) = inversion._gauss_newton(z0, mult, targets, weights), \
        reference_gauss_newton(z0, mult, targets, weights)
    assert z.tobytes() == z_ref.tobytes() and repr(res) == repr(res_ref)


@pytest.mark.parametrize("z0", [[1e200], [1e100, -3.0]])
def test_gauss_newton_stops_a_diverging_candidate_quietly(z0):
    # powers that overflow stop the candidate before lstsq, which raises on
    # non-finite input (ROADMAP F18); the best candidate so far comes back
    n = len(z0) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, res = inversion._gauss_newton(np.array(z0), np.ones(len(z0)), np.ones(n), np.ones(n))
    assert np.isfinite(z).all() and res > 1e200


# The screen's accept against _gauss_newton: below _accept_below(n, ymax) the
# first evaluation of the pass is below 0.5, so it returns its start unchanged.
# The weights sit at their smallest (no noise term) and the cluster means at up
# to ymax, where the float error in units of the weights is largest; the
# targets put each moment's exact residual within 0.01 below `hi` weight
# units, hi on either side of the threshold or just below 0.5, where a plain
# 0.5 threshold would accept what the pass does not.  The example budget comes
# from the hypothesis profile (--hypothesis-profile=ci runs more).

@settings(deadline=None, derandomize=True)
@given(st.data())
def test_screen_accept_is_what_gauss_newton_returns(data):
    n = data.draw(st.integers(1, 25))
    k = data.draw(st.integers(1, n))
    bounds = [0, *sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=k - 1, max_size=k - 1))), n]
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    top = data.draw(st.floats(0.25, 4.0))
    means = [data.draw(st.sampled_from([1.0, -1.0])) * top * data.draw(st.floats(0.5, 1.0)) for _ in sizes]
    ymax = max(1.0, max(map(abs, means)))
    weights = inversion._ACCEPT_FACTOR * inversion._FLOAT_NOISE_FACTOR * inversion._EPS * n * ymax ** np.arange(1, n + 1)
    accept = inversion._accept_below(n, ymax)
    hi = data.draw(st.one_of(st.floats(accept - 0.01, 0.51), st.floats(0.499, 0.5)))
    targets = np.array([float(sum(s * Fraction(z) ** m for s, z in zip(sizes, means))
                             + data.draw(st.sampled_from([1, -1])) * Fraction(data.draw(st.floats(hi - 0.01, hi))) * Fraction(w))
                        for m, w in enumerate(weights.tolist(), 1)])
    if inversion._screen(means, sizes, targets.tolist(), weights.tolist()) < accept:
        z, res = inversion._gauss_newton(np.array(means), np.array(sizes, dtype=float), targets, weights)
        assert z.tobytes() == np.array(means).tobytes() and res < 0.5


def test_screen_keeps_a_nan_and_returns_above_the_cut_at_once():
    # an overflowed power over an infinite weight gives a nan, which can
    # neither skip nor accept; a later moment above the cut still skips
    assert math.isnan(inversion._screen([1e200], [1], [0.0] * 3, [1e300, math.inf, math.inf]))
    assert inversion._screen([1e200], [1], [0.0] * 3, [1e300, math.inf, 1.0]) == math.inf
    assert inversion._screen([2.0, 1.0], [1, 1], [3.0, 5e6, 0.0], [1.0] * 3) == 5e6 - 5.0
    assert inversion._accept_below(25, 1e13) == 0.0 < inversion._accept_below(25, 1.0) < 0.5


# The vectorized helpers against the per-moment and per-slice expressions
# they replaced, bit for bit.

roots = st.floats(-3, 3, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_power_sums_match_per_moment_sums(data):
    k = data.draw(st.integers(1, 16))
    z = np.array(data.draw(st.lists(roots, min_size=k, max_size=k)))
    mult = np.array(data.draw(st.lists(st.integers(1, 16), min_size=k, max_size=k)), dtype=float)
    n = data.draw(st.integers(1, 16))
    expected = np.array([np.sum(mult * z**m) for m in range(1, n + 1)])
    assert power_sums(z, mult, n).tobytes() == expected.tobytes()


coefficients = st.floats(-100, 100, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_companion_roots_match_np_roots(data):
    n = data.draw(st.integers(1, 25))
    zeros = data.draw(st.integers(0, n))
    coeffs = ([1.0] + data.draw(st.lists(coefficients, min_size=n - zeros, max_size=n - zeros))
              + data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=zeros, max_size=zeros)))
    got, expected = inversion._companion_roots(coeffs), np.roots(coeffs)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# Any finite moment list: an overflow error, or n finite values sorted
# descending whose only possible flag says the roots came out complex.

@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(st.one_of(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
                 st.lists(st.fractions(), min_size=1, max_size=16)))
@example([1.7194804702922655, 3.2758965023665247, 1e+191, -1e-06, -2.7194566202145722])
def test_any_finite_moments_give_sorted_finite_values_or_overflow(psums):
    try:
        rec = spectrum_from_power_sums(psums)
    except ValueError as exc:
        assert "overflow" in str(exc)
        return
    assert rec.values.dtype == np.float64 and rec.values.shape == (len(psums),)
    assert np.all(np.isfinite(rec.values))
    assert np.all(np.diff(rec.values) <= 0)
    assert set(rec.flags) <= {inversion.COMPLEX_ROOTS_FLAG}
