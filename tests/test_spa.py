"""SPA channel, Choi bisection, affine spectrum relation, group channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from entmoment import linalg, measures, spa, states


def test_spa_fixes_maximally_mixed():
    st = states.werner_state(0.0)
    np.testing.assert_allclose(spa.apply_spa_pt(st).matrix, np.eye(4) / 4, atol=1e-15)


def test_spa_bell_output_spectrum():
    # PT spectrum {1/2 x3, -1/2} through the affine map: {5/18 x3, 1/6}
    out = spa.apply_spa_pt(states.bell_state())
    w = np.sort(np.linalg.eigvalsh(out.matrix))
    np.testing.assert_allclose(w, [1 / 6, 5 / 18, 5 / 18, 5 / 18], atol=1e-12)
    assert abs(w[0] - 1 / 6) < 1e-14


# apply_spa_pt does not re-check its output.  For a valid input with
# residuals h (Hermiticity), t (trace) the output's are s h and s t, and its
# smallest eigenvalue is at least (1-s)/D - s/2 = s (d - 1/2), s = 1/(d^3+1):
# the properties below hold that, also for inputs whose residuals sit just
# inside the constructor's 1e-9 tolerances.

EDGES = (None, "hermiticity", "trace", "positivity")


def near_tolerance(state, edge, sign):
    """``state`` with one residual pushed to 0.9e-9, the constructor's check passed."""
    m = np.array(state.matrix)
    dim = m.shape[0]
    if edge == "hermiticity":
        m[0, -1] += sign * 0.9e-9j
    elif edge == "trace":
        m += sign * 0.9e-9 / dim * np.eye(dim)
    elif edge == "positivity":
        w, v = np.linalg.eigh(m)
        shift = w[0] + 0.9e-9
        m += shift * (np.outer(v[:, -1], v[:, -1].conj()) - np.outer(v[:, 0], v[:, 0].conj()))
    return states.DensityMatrix(m, state.dims)


def residuals(m):
    """Hermiticity defect, trace defect and smallest eigenvalue of the Hermitian part, as construction takes them."""
    return (linalg.hermiticity_defect(m), float(abs(m.trace() - 1.0)),
            float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]))


def assert_spa_output_valid(state):
    d = state.dims[0]
    s = spa.spa_shrink(d)
    herm_before, trace_before, _ = residuals(state.matrix)
    herm, trace, min_eig = residuals(spa.apply_spa_pt(state).matrix)
    assert herm <= states.HERMITICITY_TOL and trace <= states.TRACE_TOL and min_eig >= -states.EIGENVALUE_TOL
    assert herm <= s * herm_before + 1e-15
    assert trace <= s * trace_before + 1e-14
    assert min_eig >= s * (d - 0.5 - 1e-8)


def make_spa_input(family, d, p, seed):
    p = p if family in ("werner", "isotropic") else None
    return states.make_state(family, (d, d), p=p, rng=states.rng_stream(seed, 0))


def test_spa_output_is_valid_state():
    for family in states.FAMILIES:
        for d in (2,) if family in ("bell", "werner") else (2, 3, 4):
            for edge in EDGES:
                for sign in (-1.0, 1.0):
                    assert_spa_output_valid(near_tolerance(make_spa_input(family, d, 0.3, d), edge, sign))
    rng = states.rng_stream(300, 0)
    for _ in range(100):
        assert_spa_output_valid(states.random_mixed_state((2, 2), rng))


# the example budget comes from the hypothesis profile (--hypothesis-profile=ci runs more)
@settings(deadline=None)
@given(strategies.sampled_from(states.FAMILIES), strategies.sampled_from([2, 3, 4]), strategies.floats(0, 1),
       strategies.integers(0, 2**32 - 1), strategies.sampled_from(EDGES), strategies.sampled_from([-1.0, 1.0]))
def test_spa_output_validity_property(family, d, p, seed, edge, sign):
    d = 2 if family in ("bell", "werner") else d
    assert_spa_output_valid(near_tolerance(make_spa_input(family, d, p, seed), edge, sign))


def test_spa_spectrum_is_affine_image_of_pt_spectrum():
    rng = states.rng_stream(301, 0)
    for dims in ((2, 2), (3, 3)):
        for _ in range(20):
            st = states.random_mixed_state(dims, rng)
            out = spa.apply_spa_pt(st)
            pt_eigs = linalg.herm_eigenvalues(
                linalg.partial_transpose(st.matrix, dims)
            )
            mapped = np.sort([spa.affine_map(x, dims[0]) for x in pt_eigs])
            got = np.sort(np.linalg.eigvalsh(out.matrix))
            np.testing.assert_allclose(got, mapped, atol=1e-10)


def test_spa_requires_square_split():
    st = states.random_mixed_state((2, 3), states.rng_stream(302, 0))
    with pytest.raises(ValueError, match="equal local dimensions"):
        spa.apply_spa_pt(st)


def test_channel_descriptor_weights():
    assert abs(spa.spa_shrink(2) - 1 / 9) < 1e-15
    assert abs((1.0 - spa.spa_shrink(2)) - 8 / 9) < 1e-15
    assert abs(spa.spa_shrink(3) - 1 / 28) < 1e-15
    st = states.random_mixed_state((3, 3), states.rng_stream(303, 0))
    s = spa.spa_shrink(3)
    want = (1.0 - s) * np.eye(9) / 9 + s * linalg.partial_transpose(st.matrix, (3, 3))
    first = spa.apply_spa_pt(st)
    again = spa.apply_spa_pt(st)  # called directly, it builds anew, to the same bits
    assert again is not first and not again.matrix.flags.writeable
    assert np.array_equal(first.matrix, want) and np.array_equal(again.matrix, want)


# ----------------------------------------------------------------- affine map

def test_affine_known_values():
    assert abs(spa.affine_map(-0.5, 2) - 1 / 6) < 1e-15
    assert abs(spa.affine_map(0.0, 4) - 4 / 65) < 1e-15


def test_affine_inverse_round_trip():
    for d in (2, 3, 4):
        for x in np.linspace(-0.5, 1.0, 31):
            assert abs(spa.inverse_affine(spa.affine_map(x, d), d) - x) < 1e-14


# ------------------------------------------------------------ choi threshold

def test_choi_threshold_two_qubit_pt():
    thr = spa.spa_threshold_by_choi((2, 2))
    assert abs(thr - 1 / 9) < 1e-6


def test_choi_threshold_qutrit_pt():
    thr = spa.spa_threshold_by_choi((3, 3))
    assert abs(thr - 1 / 28) < 1e-6


def test_choi_threshold_identity_map_is_one():
    # the partial transpose on a one-dimensional B is the identity map
    assert spa.spa_threshold_by_choi((2, 1)) == 1.0


def test_choi_threshold_matches_closed_form_on_2x3():
    # no closed form assumed for d != d': sanity-check the mixture at the
    # returned weight is still a channel and 10% above it is not
    thr = spa.spa_threshold_by_choi((2, 3))
    assert 0.0 < thr < 1.0
    dim = 6

    def mixture(p):
        def fn(m):
            return (1 - p) * np.trace(m) * np.eye(dim) / dim + p * linalg.partial_transpose(m, (2, 3))
        return fn

    def choi_matrix(map_fn):  # the map applied to each |i><j| block, an oracle independent of spa
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                basis = np.zeros((dim, dim), dtype=complex)
                basis[i, j] = 1.0
                out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = map_fn(basis)
        return out

    lo = np.linalg.eigvalsh(choi_matrix(mixture(thr * 0.999)))[0]
    hi = np.linalg.eigvalsh(choi_matrix(mixture(thr * 1.1)))[0]
    assert lo >= -1e-9
    assert hi < -1e-9


# ------------------------------------------------------------ group channels

def test_group_channel_bell_shift_trace():
    out = spa.group_channel_output(states.bell_state(), 1)
    assert abs(out.shift_trace() - 17 / 65) < 1e-12
    assert abs(out.p_k - 1.0) < 1e-12


def test_group_channel_rejects_bad_input():
    with pytest.raises(ValueError, match="group index must be 1..4, got 5"):
        spa.group_channel_output(states.bell_state(), 5)
    with pytest.raises(ValueError):
        spa.group_channel_output(states.random_mixed_state((3, 3), states.rng_stream(1, 1)), 1)


def test_shift_trace_and_spec_moment_invert_each_other():
    # the spec's integer constants give the bits of the float read-out
    # (4.0 d + p_k) / (d^3 + 1.0): every int below 2**53 converts exactly
    rng = states.rng_stream(305, 0)
    for _ in range(20):
        st = states.random_mixed_state((2, 2), rng)
        outputs = [spa.group_channel_output(st, k) for k in (1, 2, 3, 4)]
        for out in outputs:
            d = 4**out.k
            assert out.shift_trace() == (4.0 * d + out.p_k) / (d**3 + 1.0)
            spec = spa.moment_observable_spec(out.k)
            assert spec.mean(out.p_k) == out.shift_trace()
            assert abs(spec.moment(out.shift_trace()) - out.p_k) < 1e-9
        # the sampled ladder's read-out: the same four means off one chain
        assert spa._ladder_means(st) == [out.shift_trace() for out in outputs]


def materialized_shift_trace(state, k):
    """Dense oracle: build the 16^k-dimensional channel output explicitly."""
    rho = state.matrix
    rho_tilde = measures.spin_flip(state)
    d = 4**k
    signal = np.array([[1.0]], dtype=complex)
    for _ in range(k):
        signal = np.kron(signal, np.kron(rho, rho_tilde))
    dense = (d / (d**3 + 1)) * np.eye(d * d) + signal / (d**3 + 1)
    v = linalg.cyclic_shift_matrix(2 * k, 4)
    return np.trace(v @ dense).real


def test_group_channel_k1_materialized_oracle():
    rng = states.rng_stream(303, 0)
    for _ in range(25):
        st = states.random_mixed_state((2, 2), rng)
        out = spa.group_channel_output(st, 1)
        assert abs(materialized_shift_trace(st, 1) - out.shift_trace()) < 1e-12


def test_group_channel_k2_materialized_oracle():
    rng = states.rng_stream(304, 0)
    for _ in range(10):
        st = states.random_mixed_state((2, 2), rng)
        out = spa.group_channel_output(st, 2)
        assert abs(materialized_shift_trace(st, 2) - out.shift_trace()) < 1e-10


def test_group_channel_maximally_mixed_fixed_point():
    # SPA output of I/4 copies is again maximally mixed: Tr(V rho_k) = p_k
    st = states.werner_state(0.0)
    for k in (1, 2, 3, 4):
        out = spa.group_channel_output(st, k)
        assert abs(out.shift_trace() - out.p_k) < 1e-15
        assert abs(out.p_k - 4.0 ** (1 - 2 * k)) < 1e-15
