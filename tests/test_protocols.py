"""Moment ladder, spectrum pipeline, two-stage scenario, resource ledgers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmoment import measures, protocols, spa, states
from entmoment.inversion import SpectrumRecovery


def eigen_moments(state):
    """Independent oracle: power sums from the eigendecomposition of
    sqrt(rho) rho~ sqrt(rho) rather than from cyclic products."""
    rho = state.matrix
    rho_tilde = measures.spin_flip(state)
    w, v = np.linalg.eigh(rho)
    s = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    lam = np.clip(np.linalg.eigvalsh(s @ rho_tilde @ s), 0, None)
    return [float(np.sum(lam**k)) for k in (1, 2, 3, 4)]


# ------------------------------------------------------------ exact moments

def channel_moments(state):
    """The float ladder route: each p_k read back off its group channel output."""
    outputs = spa.group_channel_outputs(state)
    return [spa.moment_observable_spec(out.k).moment(out.shift_trace()) for out in outputs]


def test_exact_moments_bell():
    p = spa.ladder_power_sums(states.bell_state())
    np.testing.assert_allclose(p, [1, 1, 1, 1], atol=1e-12)
    assert protocols.concurrence_from_moments(p)[1] == ()


def test_exact_moments_maximally_mixed():
    # rho rho~ = I/16, so p_k = 4 * 16^-k
    p = spa.ladder_power_sums(states.werner_state(0.0))
    np.testing.assert_allclose(p, [1 / 4, 1 / 64, 1 / 1024, 1 / 16384], atol=1e-15)


def test_exact_moments_match_eigendecomposition():
    rng = states.rng_stream(500, 0)
    for _ in range(50):
        st = states.random_mixed_state((2, 2), rng)
        np.testing.assert_allclose(spa.ladder_power_sums(st), eigen_moments(st), atol=1e-10)
        np.testing.assert_allclose([float(x) for x in protocols.exact_moment_fractions(st)], eigen_moments(st),
                                   atol=1e-10)


# --------------------------------------------------------- channel moments

def test_observable_spec_constants():
    assert [spa.moment_observable_spec(k).amplification for k in (1, 2, 3, 4)] == [65, 4097, 262145, 16777217]
    for k in (1, 2, 3, 4):
        spec = spa.moment_observable_spec(k)
        assert spec.copies == 2 * k
        assert spec.amplification == 4 ** (3 * k) + 1
        assert spec.offset == 4 * 4**k
        assert spec.d_cubed_offset == 4 ** (3 * k)


def test_moment_from_channel_bell_k1():
    from entmoment.spa import group_channel_output

    out = group_channel_output(states.bell_state(), 1)
    # 65 * (17/65) - 16 = 1
    assert abs(spa.moment_observable_spec(1).moment(out.shift_trace()) - 1.0) < 1e-12


def test_moment_from_channel_maximally_mixed_k1():
    from entmoment.spa import group_channel_output

    out = group_channel_output(states.werner_state(0.0), 1)
    assert abs(spa.moment_observable_spec(1).moment(out.shift_trace()) - 0.25) < 1e-12


def test_channel_moments_equal_exact_moments():
    rng = states.rng_stream(501, 0)
    for _ in range(100):
        st = states.random_mixed_state((2, 2), rng)
        exact = [float(x) for x in protocols.exact_moment_fractions(st)]
        np.testing.assert_allclose(channel_moments(st), exact, atol=1e-9)


def test_d_cubed_offset_breaks_the_ladder_identity():
    # the alternative offset misses the identity by d^3 - 4d on every group
    from entmoment.spa import group_channel_output

    st = states.bell_state()
    for k in (1, 2, 3, 4):
        spec = spa.moment_observable_spec(k)
        shift = group_channel_output(st, k).shift_trace()
        wrong = spec.amplification * shift - spec.d_cubed_offset
        right = spec.amplification * shift - spec.offset
        assert abs((wrong - right) - (spec.offset - spec.d_cubed_offset)) < 1e-9
        assert abs(right - 1.0) < 1e-9


# ---------------------------------------------------------- newton invert

def test_newton_invert_bell():
    inv = protocols.newton_invert((1.0, 1.0, 1.0, 1.0))
    np.testing.assert_allclose(inv.values, [1, 0, 0, 0], atol=1e-12)
    assert inv.flags == ()


def test_newton_invert_maximally_mixed():
    inv = protocols.newton_invert((1 / 4, 1 / 64, 1 / 1024, 1 / 16384))
    np.testing.assert_allclose(inv.values, [1 / 16] * 4, atol=1e-12)


def test_newton_invert_rank_one_quarter():
    # the vector (1/4, 1/16, 1/64, 1/256) is the power-sum ladder of a
    # single value 1/4, not of the maximally mixed spectrum
    inv = protocols.newton_invert((1 / 4, 1 / 16, 1 / 64, 1 / 256))
    np.testing.assert_allclose(inv.values, [0.25, 0, 0, 0], atol=1e-10)


def test_newton_invert_round_trip():
    rng = states.rng_stream(502, 0)
    for i in range(200):
        lam = np.sort(rng.uniform(0, 1, 4))[::-1]
        if i % 3 == 1:
            lam[1] = lam[0]
        if i % 5 == 2:
            lam[3] = lam[2]
        lam = np.sort(lam)[::-1]
        psums = [float(np.sum(lam**k)) for k in (1, 2, 3, 4)]
        inv = protocols.newton_invert(psums)
        np.testing.assert_allclose(inv.values, lam, atol=1e-8)


def test_newton_invert_noisy_flags():
    inv = protocols.newton_invert((1.02, 0.96, 1.05, 0.9))
    assert "complex-roots" in inv.flags
    assert all(x >= 0 for x in inv.values)


@pytest.mark.parametrize("values, flags", [
    ([0.5, -0.0, -1e-300, np.nan], ()),
    ([-1e-3, -0.0, 0.25, 1.0], ("complex-roots",)),
])
def test_clamp_matches_np_clip_on_signed_zero_and_nan(monkeypatch, values, flags):
    values = np.array(values)
    monkeypatch.setattr(protocols, "spectrum_from_power_sums", lambda psums: SpectrumRecovery(values.copy(), flags))
    rec = protocols._clamped_inversion([1.0] * 4)
    assert rec.values.tobytes() == np.clip(values, 0.0, None).tobytes()
    assert not np.signbit(rec.values[1])  # -0.0 comes back as +0.0
    assert np.isnan(rec.values).tolist() == np.isnan(values).tolist()
    guarded = float(values.min()) < -protocols.NEGATIVE_ROOT_GUARD
    assert rec.flags == flags + ((protocols.NEGATIVE_ROOTS_FLAG,) if guarded else ())


def test_newton_invert_needs_four():
    with pytest.raises(ValueError):
        protocols.newton_invert((1.0, 1.0))


# --------------------------------------------------- concurrence from moments

def test_concurrence_from_moments_bell():
    br, flags = protocols.concurrence_from_moments((1.0, 1.0, 1.0, 1.0))
    assert abs(br.concurrence - 1.0) < 1e-10
    assert abs(br.ef - 1.0) < 1e-10
    assert flags == ()


def test_concurrence_from_moments_flags_moment_order_after_the_inversion_flags():
    _, flags = protocols.concurrence_from_moments((0.5, 0.6, 0.1, 0.05))
    assert flags == ("complex-roots", protocols.NEGATIVE_ROOTS_FLAG, protocols.MOMENT_ORDER_FLAG)


@pytest.mark.parametrize("moments, flagged", [
    ((1.0, 1.0, 1.0, 1.0 + 1e-12), False),  # within the 1e-12 allowance
    ((1.0, 1.0, 1.0, 1.0 + 1e-11), True),
    ((0.25, 0.0625, 0.0, -1e-11), True),  # p_4 below zero
    ((Fraction(1), Fraction(1), Fraction(1), Fraction(1) + Fraction(1, 10**13)), False),
    ((Fraction(1), Fraction(1), Fraction(1), Fraction(1) + Fraction(1, 10**11)), True),
])
def test_moment_order_is_checked_on_the_moments_as_floats(moments, flagged):
    _, flags = protocols.concurrence_from_moments(moments)
    assert flags.count(protocols.MOMENT_ORDER_FLAG) == int(flagged)
    assert not flagged or flags[-1] == protocols.MOMENT_ORDER_FLAG


def test_concurrence_from_moments_werner():
    br, _ = protocols.concurrence_from_moments(spa.ladder_power_sums(states.werner_state(0.6)))
    assert abs(br.concurrence - 0.4) < 1e-8


def test_concurrence_from_moments_separable_clamps():
    st = states.product_pure_state((2, 2), states.rng_stream(503, 0))
    br, _ = protocols.concurrence_from_moments(spa.ladder_power_sums(st))
    assert br.concurrence == 0.0


def test_moment_pipeline_matches_wootters_on_random_states():
    rng = states.rng_stream(504, 0)
    for _ in range(50):
        st = states.random_mixed_state((2, 2), rng)
        br, flags = protocols.concurrence_from_moments(channel_moments(st))
        assert abs(br.concurrence - measures.concurrence(st)) < 1e-6


# -------------------------------------------------------- spectrum protocol

def test_spectrum_protocol_bell():
    est = protocols.spectrum_protocol(states.bell_state())
    np.testing.assert_allclose(
        est.report.pt_eigenvalues, [0.5, 0.5, 0.5, -0.5], atol=1e-8
    )
    assert abs(est.report.ec - 1.0) < 1e-8


def test_spectrum_protocol_maximally_mixed():
    est = protocols.spectrum_protocol(states.werner_state(0.0))
    np.testing.assert_allclose(est.report.pt_eigenvalues, [0.25] * 4, atol=1e-10)
    assert est.report.ec == 0.0


def test_spectrum_protocol_random_two_qubit():
    rng = states.rng_stream(505, 0)
    for _ in range(30):
        st = states.random_mixed_state((2, 2), rng)
        est = protocols.spectrum_protocol(st)
        exact = measures.negativity_report(st)
        assert abs(est.report.ec - exact.ec) < 1e-6
        np.testing.assert_allclose(
            est.report.pt_eigenvalues, exact.pt_eigenvalues, atol=1e-6
        )


def test_spectrum_protocol_qutrit():
    rng = states.rng_stream(506, 0)
    for _ in range(5):
        st = states.random_mixed_state((3, 3), rng)
        est = protocols.spectrum_protocol(st)
        exact = measures.negativity_report(st)
        np.testing.assert_allclose(
            est.report.pt_eigenvalues, exact.pt_eigenvalues, atol=1e-6
        )


@pytest.mark.parametrize("make", [
    lambda: states.random_mixed_state((5, 5), states.rng_stream(0, 0)),
    lambda: states.product_pure_state((5, 5), states.rng_stream(0, 0)),
    lambda: states.random_pure_state((5, 5), states.rng_stream(0, 0)),
    lambda: states.isotropic_state(5, 0.5),
], ids=["random-mixed", "product-pure", "random-pure", "isotropic-0.5"])
def test_spectrum_protocol_d5_channel_values_match_eigvalsh(make):
    st = make()
    est = protocols.spectrum_protocol(st)
    ref = np.linalg.eigvalsh(spa.apply_spa_pt(st).matrix)
    assert np.max(np.abs(np.sort(est.channel_eigenvalues) - ref)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pt_values_are_the_inverse_affine_of_every_channel_value(d, data):
    # d is read off the count of power sums, d * d
    xs = np.array(data.draw(st.lists(st.floats(-0.05, 1.0), min_size=d * d, max_size=d * d)))
    psums = [float((xs**m).sum()) for m in range(1, d * d + 1)]
    est = protocols.spectrum_from_channel_moments(psums)
    assert len(est.channel_eigenvalues) == d * d
    expected = sorted((spa.inverse_affine(x, d) for x in est.channel_eigenvalues), reverse=True)
    assert np.array(est.report.pt_eigenvalues).tobytes() == np.array(expected).tobytes()


def test_one_power_sum_is_read_as_d_1():
    est = protocols.spectrum_from_channel_moments([1.0])
    assert est.channel_eigenvalues == (1.0,) and tuple(est.report.pt_eigenvalues) == (1.0,)


def test_spectrum_protocol_rejects_rectangular():
    st = states.random_mixed_state((2, 3), states.rng_stream(507, 0))
    with pytest.raises(ValueError):
        protocols.spectrum_protocol(st)


# ------------------------------------------------------------- two stage

def test_two_stage_ppt_abandons():
    res = protocols.two_stage_protocol(states.werner_state(0.2))
    assert res.verdict == "ppt"
    assert res.stage_two is None
    assert res.message == protocols.SECOND_STAGE_ABANDONED


def test_two_stage_bell_channel_minimum():
    res = protocols.two_stage_protocol(states.bell_state())
    assert res.verdict == "npt"
    assert abs(res.min_channel_eigenvalue - 1 / 6) < 1e-12
    assert res.min_channel_eigenvalue < 2 / 9


def test_two_stage_werner_gamma_estimate():
    res = protocols.two_stage_protocol(states.werner_state(0.8))
    assert res.verdict == "npt"
    assert abs(res.stage_two.concurrence_estimate - 0.7) < 1e-9


def test_two_stage_werner_threshold_sweep():
    for p in np.arange(0.0, 1.0001, 0.01):
        pt_min = (1 - 3 * p) / 4
        if abs(pt_min) < 1e-9:
            continue
        res = protocols.two_stage_protocol(states.werner_state(float(p)))
        assert res.entangled == (p > 1 / 3), f"p={p}"


def _with_werner_grid(test):
    """The werner states p = 0, 0.01, ..., 1 and 1/3, as the bell state under white noise w = 1 - p."""
    for p in [k / 100 for k in range(101)] + [1 / 3]:
        test = example(family="bell", seed=0, w=1.0 - p)(test)
    return test


# the example budget comes from the hypothesis profile (--hypothesis-profile=ci runs more)
@settings(deadline=None, derandomize=True)
@_with_werner_grid
@given(family=st.sampled_from(["bell", "product-pure", "random-pure", "random-mixed"]),
       seed=st.integers(0, 2**32 - 1), w=st.floats(0.0, 1.0, exclude_max=True))
def test_two_stage_and_ppt_verdict_agree_property(family, seed, w):
    # the channel-output route and the direct partial transpose read one sign rule
    rho = states.make_state(family, rng=states.rng_stream(seed))
    state = states.DensityMatrix((1.0 - w) * rho.matrix + w * np.eye(4) / 4, (2, 2))
    assert protocols.two_stage_protocol(state).verdict == measures.ppt_verdict(state).verdict


def test_two_stage_reads_a_nan_eigenvalue_as_ppt(monkeypatch):
    # the sign rule is measures.verdict_from_min_pt_eigenvalue's: no entanglement is shown by NaN
    monkeypatch.setattr(protocols, "inverse_affine", lambda eigenvalue, d: math.nan)
    res = protocols.two_stage_protocol(states.bell_state())
    assert res.verdict == "ppt" and math.isnan(res.min_pt_eigenvalue_estimate)
    assert res.stage_two is None and res.message == protocols.SECOND_STAGE_ABANDONED


def test_monotone_concurrence_on_werner_ladder():
    estimates = []
    for p in (0.4, 0.6, 0.8, 1.0):
        br, _ = protocols.concurrence_from_moments(channel_moments(states.werner_state(p)))
        estimates.append(br.concurrence)
    assert all(b > a for a, b in zip(estimates, estimates[1:]))


# --------------------------------------------------------------- ledgers

def test_ledger_concurrence_moments():
    led = protocols.resource_ledger("concurrence-moments")
    assert (led.r_p, led.r_c, led.r) == (4, 20, 80)


def test_ledger_spectrum():
    led = protocols.resource_ledger("spectrum", 2)
    assert (led.r_p, led.r_c, led.r) == (3, 9, 27)
    led3 = protocols.resource_ledger("spectrum", 3)
    assert (led3.r_p, led3.r_c) == (8, 44)
    # r_c closed form equals the sum 2 + 3 + ... + d^2
    for d in (2, 3, 4):
        assert protocols.resource_ledger("spectrum", d).r_c == sum(range(2, d * d + 1))


def test_ledger_tomography():
    led = protocols.resource_ledger("tomography", 2)
    assert (led.r_p, led.r_c, led.r) == (15, 15, 225)
    assert protocols.resource_ledger("tomography", 3).r_p == 80
    assert protocols.QUOTED_TOMOGRAPHY_R == 165


@pytest.mark.parametrize("protocol", ["spectrum", "tomography", "concurrence-moments"])
@pytest.mark.parametrize("d", [2.5, 3.0, 1, -2, "3", None])
def test_ledger_rejects_a_dimension_that_is_not_an_integer_of_at_least_2(protocol, d):
    with pytest.raises(ValueError, match="local dimension must be an integer of at least 2"):
        protocols.resource_ledger(protocol, d)


@pytest.mark.parametrize("d", [3, 4])
def test_ladder_ledger_is_two_qubit_only(d):
    with pytest.raises(ValueError, match="moment ladder is for two qubits"):
        protocols.resource_ledger("concurrence-moments", d)


def test_ledger_takes_numpy_integer_dimensions():
    assert protocols.resource_ledger("spectrum", np.int64(3)) == protocols.resource_ledger("spectrum", 3)


def test_ledger_unknown_protocol():
    with pytest.raises(ValueError):
        protocols.resource_ledger("teleportation")
