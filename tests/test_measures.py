"""Exact measures against closed forms and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmoment import linalg, measures, states


def werner_concurrence(p):
    # closed form from direct evaluation: the spin flip fixes werner states,
    # so the four numbers are the squared eigenvalues {(1+3p)/4, (1-p)/4 x3}
    return max(0.0, (3 * p - 1) / 2)


def werner_trace_norm_pt(p):
    # PT spectrum {(1+p)/4 x3, (1-3p)/4}
    return (1 + 3 * p) / 2 if p > 1 / 3 else 1.0


def random_entangled(rng):
    while True:
        st = states.random_mixed_state((2, 2), rng)
        if measures.ppt_verdict(st).entangled:
            return st


# ------------------------------------------------------------- spin flip

def test_spin_flip_and_gamma_matrix_match_the_sigma_product_bit_for_bit():
    # the signed reversal against the explicit products with Sigma = sigma_y (x) sigma_y,
    # in values and in the sign of every zero
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sigma = np.kron(sy, sy).real.astype(complex)
    rng = states.rng_stream(203, 0)
    cases = [states.bell_state(), states.werner_state(0.8), states.werner_state(0.0)]
    cases += [states.make_state(family, dims=(2, 2), rng=rng)
              for family in ("random-mixed", "random-pure", "product-pure") for _ in range(20)]
    for st in cases:
        tb = linalg.partial_transpose(st.matrix, (2, 2))
        assert measures.spin_flip(st).tobytes() == (sigma @ st.matrix.conj() @ sigma).tobytes()
        assert measures.gamma_matrix(st).tobytes() == (sigma @ np.ascontiguousarray(tb.T) @ sigma @ tb).tobytes()


def test_spin_flip_fixes_bell():
    b = states.bell_state()
    np.testing.assert_allclose(measures.spin_flip(b), b.matrix, atol=1e-15)


def test_spin_flip_fixes_maximally_mixed():
    st = states.werner_state(0.0)
    np.testing.assert_allclose(measures.spin_flip(st), np.eye(4) / 4, atol=1e-15)


def test_spin_flip_preserves_spectrum():
    rng = states.rng_stream(200, 0)
    for _ in range(20):
        st = states.random_mixed_state((2, 2), rng)
        w1 = np.linalg.eigvalsh(st.matrix)
        w2 = np.linalg.eigvalsh(measures.spin_flip(st))
        np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_spin_flip_rejects_wrong_dims():
    with pytest.raises(ValueError):
        measures.spin_flip(states.random_mixed_state((2, 3), states.rng_stream(0, 0)))


# ----------------------------------------------------------- concurrence

def test_bell_concurrence():
    br = measures.concurrence_breakdown(states.bell_state())
    np.testing.assert_allclose(br.lambdas, [1, 0, 0, 0], atol=1e-12)
    assert abs(br.concurrence - 1.0) < 1e-12
    assert abs(br.ef - 1.0) < 1e-12


def test_product_state_concurrence_zero():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    st = states.DensityMatrix(np.outer(ket, ket.conj()), (2, 2))
    br = measures.concurrence_breakdown(st)
    assert br.concurrence == 0.0
    assert br.ef == 0.0


def test_werner_concurrence_and_ef():
    br = measures.concurrence_breakdown(states.werner_state(0.6))
    assert abs(br.concurrence - 0.4) < 1e-10
    # E_f from the closed form through independent math arithmetic
    x = (1 + math.sqrt(1 - 0.4**2)) / 2
    expected_ef = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert abs(br.ef - expected_ef) < 1e-9
    assert abs(br.ef - 0.25022) < 5e-6


def test_lambda_sum_is_trace_of_rho_rho_tilde():
    rng = states.rng_stream(201, 0)
    for _ in range(20):
        st = states.random_mixed_state((2, 2), rng)
        br = measures.concurrence_breakdown(st)
        expected = np.trace(st.matrix @ measures.spin_flip(st)).real
        assert abs(sum(br.lambdas) - expected) < 1e-9
        assert br.lambdas[0] >= br.lambdas[1] >= br.lambdas[2] >= br.lambdas[3] >= 0.0


def test_local_unitary_invariance():
    rng = states.rng_stream(202, 0)
    for _ in range(20):
        st = states.random_mixed_state((2, 2), rng)
        u = np.kron(states.random_unitary(2, rng), states.random_unitary(2, rng))
        rotated = states.DensityMatrix(u @ st.matrix @ u.conj().T, (2, 2))
        assert abs(measures.concurrence(st) - measures.concurrence(rotated)) < 1e-9


def test_pure_state_concurrence_from_reduced_purity():
    # C^2 = 2 (1 - Tr rho_A^2), reduced purity straight from the amplitudes
    rng = states.rng_stream(203, 0)
    for _ in range(100):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        st = states.DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        amp = psi.reshape(2, 2)
        red = amp @ amp.conj().T
        purity = np.trace(red @ red).real
        c = measures.concurrence(st)
        assert abs(c * c - 2 * (1 - purity)) < 1e-9


def test_ef_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 1001)
    values = [measures.ef_from_concurrence(c) for c in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and abs(values[-1] - 1.0) < 1e-12


# Reference: the numpy clip/sort/mask/sqrt read-out that the plain-float
# breakdown_from_lambdas replaced, as it stood.

def reference_breakdown_from_lambdas(lambdas):
    lam = np.sort(np.clip(np.asarray(lambdas, dtype=float), 0.0, None))[::-1]
    if lam.shape != (4,):
        raise ValueError("expected four eigenvalues")
    lam[lam < 1e-13 * lam[0]] = 0.0
    roots = np.sqrt(lam)
    c = max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
    c = min(c, 1.0)
    return measures.ConcurrenceBreakdown(tuple(float(x) for x in lam), c, measures.ef_from_concurrence(c))


def assert_breakdown_matches_reference(lambdas):
    # repr tells -0.0 from 0.0 and shows every float to the last bit
    got = measures.breakdown_from_lambdas(lambdas)
    assert all(type(x) is float for x in got.lambdas)
    assert repr(got) == repr(reference_breakdown_from_lambdas(lambdas))


@st.composite
def lambda_vectors(draw):
    """Four values around a top one: negatives, signed zeros, ties with the
    top and values just under, at and above the 1e-13 dust cut."""
    top = draw(st.floats(0, 2))
    factors = st.sampled_from([1.0, 0.5, 1.0000001e-13, 1e-13, 0.9999999e-13, 1e-17, 0.0, -0.0, -1e-17, -1.0])
    value = st.one_of(st.floats(-1, 2), factors.map(lambda f: top * f))
    values = draw(st.permutations([top] + draw(st.lists(value, min_size=3, max_size=3))))
    return draw(st.sampled_from([list, tuple, np.array]))(values)


@settings(max_examples=300, deadline=None)
@given(lambda_vectors())
def test_breakdown_from_lambdas_matches_numpy_reference(lambdas):
    assert_breakdown_matches_reference(lambdas)


@pytest.mark.parametrize("lambdas", [
    [math.nan, 0.3, 0.1, 0.0], [0.3, math.nan, math.nan, -0.1], [math.inf, 0.3, 1e-20, 0.0],
    [0.2, -math.inf, 0.1, 0.05], [math.inf, math.nan, -1.0, 0.2], [math.inf, math.inf, 0.0, -0.0],
])
def test_breakdown_from_lambdas_keeps_non_finite_behaviour(lambdas):
    # refused: NaN would read as C = 0 and +inf as C = 1, with no flag
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        measures.breakdown_from_lambdas(lambdas)


@pytest.mark.parametrize("lambdas", [[], [0.5, 0.2, 0.1], [0.4, 0.3, 0.2, 0.1, 0.0], np.eye(2), 0.5])
def test_breakdown_from_lambdas_needs_four_values(lambdas):
    with pytest.raises(ValueError, match="expected four eigenvalues"):
        measures.breakdown_from_lambdas(lambdas)
    with pytest.raises(ValueError):  # a scalar raised numpy's axis error here
        reference_breakdown_from_lambdas(lambdas)


# -------------------------------------------------------- binary entropy

def test_binary_entropy_limits_and_half():
    assert measures.binary_entropy(0.0) == 0.0
    assert measures.binary_entropy(1.0) == 0.0
    assert abs(measures.binary_entropy(0.5) - 1.0) < 1e-15


def test_binary_entropy_symmetry():
    for x in np.linspace(0, 1, 21):
        assert abs(measures.binary_entropy(x) - measures.binary_entropy(1 - x)) < 1e-12


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        measures.binary_entropy(-0.1)
    with pytest.raises(ValueError):
        measures.binary_entropy(1.1)


# ------------------------------------------------------------- negativity

def test_bell_negativity_report():
    rep = measures.negativity_report(states.bell_state())
    assert abs(rep.trace_norm_pt - 2.0) < 1e-12
    assert abs(rep.negativity - 0.5) < 1e-12
    assert abs(rep.ec - 1.0) < 1e-12
    np.testing.assert_allclose(rep.pt_eigenvalues, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_separable_product_has_zero_measures():
    st = states.product_pure_state((2, 2), states.rng_stream(204, 0))
    rep = measures.negativity_report(st)
    assert rep.ec < 1e-9
    assert rep.negativity < 1e-9


def test_werner_negativity_closed_form():
    rep = measures.negativity_report(states.werner_state(0.6))
    assert abs(rep.trace_norm_pt - 1.4) < 1e-10
    assert abs(rep.ec - math.log2(1.4)) < 1e-10


def test_pt_eigenvalues_sum_to_one():
    rng = states.rng_stream(205, 0)
    for dims in ((2, 2), (3, 3), (2, 3)):
        st = states.random_mixed_state(dims, rng)
        rep = measures.negativity_report(st)
        assert abs(sum(rep.pt_eigenvalues) - 1.0) < 1e-9


def test_ec_bounded_for_two_qubits():
    rng = states.rng_stream(206, 0)
    for _ in range(500):
        st = states.random_mixed_state((2, 2), rng)
        rep = measures.negativity_report(st)
        assert rep.trace_norm_pt <= 2.0 + 1e-9
        assert rep.ec <= 1.0 + 1e-9


# ------------------------------------------------------------ ppt verdict

def test_ppt_verdict_werner():
    res = measures.ppt_verdict(states.werner_state(0.5))
    assert res.entangled
    assert abs(res.min_pt_eigenvalue + 0.125) < 1e-12
    assert not measures.ppt_verdict(states.werner_state(0.2)).entangled
    assert not measures.ppt_verdict(states.werner_state(0.0)).entangled


def test_ppt_sign_rule_reads_nan_as_ppt():
    # npt only strictly below -NPT_TOL; NaN shows no negative eigenvalue
    rule = measures.verdict_from_min_pt_eigenvalue
    assert rule(-measures.NPT_TOL).verdict == "ppt" and rule(-2 * measures.NPT_TOL).verdict == "npt"
    assert rule(math.nan).verdict == "ppt" and math.isnan(rule(math.nan).min_pt_eigenvalue)
    report = measures.NegativityReport((0.5, math.nan), math.nan, math.nan, math.nan)
    assert report.verdict.verdict == "ppt"


def test_ppt_verdict_reads_the_negativity_reports_spectrum():
    # the minimum is the last of the descending report's eigenvalues, bit for
    # bit the first of an ascending eigvalsh
    rng = states.rng_stream(208, 0)
    for dims in ((2, 2), (2, 3), (3, 3)):
        for _ in range(50):
            st = states.random_mixed_state(dims, rng)
            want = float(np.linalg.eigvalsh(linalg.partial_transpose(st.matrix, dims))[0])
            res = measures.ppt_verdict(st)
            assert res.min_pt_eigenvalue.hex() == want.hex()
            assert res == measures.negativity_report(st).verdict
            assert res.verdict == ("npt" if want < -measures.NPT_TOL else "ppt")


def test_npt_iff_concurrence_positive():
    rng = states.rng_stream(207, 0)
    for _ in range(500):
        st = states.random_mixed_state((2, 2), rng)
        npt = measures.ppt_verdict(st).entangled
        assert npt == (measures.concurrence(st) > 1e-9)


def test_pt_trace_norm_at_least_one_with_ppt_equality():
    # ||rho^T_B||_1 >= 1 always; equality exactly when the PT is PSD
    rng = states.rng_stream(210, 0)
    for dims in ((2, 2), (2, 3)):
        for _ in range(100):
            st = states.random_mixed_state(dims, rng)
            pt = linalg.partial_transpose(st.matrix, dims)
            tn = measures.negativity_report(st).trace_norm_pt
            assert tn >= 1.0 - 1e-9
            ppt = np.linalg.eigvalsh(pt)[0] >= -1e-9
            assert (abs(tn - 1.0) <= 1e-8) == ppt


# ------------------------------------------------------------ gamma matrix

def test_gamma_bell_quarter():
    rep = measures.gamma_concurrence_report(states.bell_state())
    assert abs(rep.lambda_min - 0.25) < 1e-12
    assert abs(rep.concurrence_estimate - 1.0) < 1e-10
    assert rep.imag_residual < 1e-12
    assert rep.flags == ()


def test_gamma_ratio_constant_on_entangled_states():
    # the empirical calibration behind min eig(gamma) = C^2 / 4, ratio exactly 1
    rng = states.rng_stream(208, 0)
    for _ in range(100):
        st = random_entangled(rng)
        c = measures.concurrence(st)
        rep = measures.gamma_concurrence_report(st)
        assert abs(4 * rep.lambda_min / (c * c) - 1.0) < 1e-6


def test_gamma_estimate_matches_concurrence():
    rng = states.rng_stream(209, 0)
    for _ in range(50):
        st = random_entangled(rng)
        rep = measures.gamma_concurrence_report(st)
        assert abs(rep.concurrence_estimate - measures.concurrence(st)) < 1e-6


@pytest.mark.parametrize("imag, flagged", [(1e-3, True), (measures.GAMMA_IMAG_GUARD, False)])
def test_gamma_imaginary_residual_flag(monkeypatch, imag, flagged):
    # no state is known that reaches the guard, so the eigensolver is patched:
    # the smallest-real-part eigenvalue gets the imaginary part, the others
    # (with larger real parts) far larger ones
    spec = np.array([0.6 + 0.5j, 0.25 + imag * 1j, 0.4 - 0.5j, 0.3 + 0.1j])
    monkeypatch.setattr(measures, "general_eigenvalues", lambda m: spec)
    rep = measures.gamma_concurrence_report(states.bell_state())
    assert rep.flags == (("gamma-imaginary-residual",) if flagged else ())
    assert rep.imag_residual == imag and rep.lambda_min == 0.25 and rep.concurrence_estimate == 1.0


def test_gamma_on_separable_degenerates():
    # out of the protocol's domain: the estimate is a clamped sentinel
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    st = states.DensityMatrix(np.outer(ket, ket.conj()), (2, 2))
    rep = measures.gamma_concurrence_report(st)
    assert abs(rep.lambda_min) < 1e-12
    assert rep.concurrence_estimate == 0.0
