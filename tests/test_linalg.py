"""mat-core primitives against independent small-case oracles."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entmoment import linalg, measures, spa
from entmoment.states import DensityMatrix, make_state, rng_stream

SY = np.array([[0, -1j], [1j, 0]])


def random_complex(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(dim, rng):
    m = random_complex(dim, rng)
    return (m + m.conj().T) / 2


def bell_projector():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


# ----------------------------------------------------------------- tensor

def test_tensor_identity():
    np.testing.assert_array_equal(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sigma_yy_antidiagonal():
    # direct Kronecker expansion by hand: anti-diagonal (-1, 1, 1, -1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1
    expected[1, 2] = 1
    expected[2, 1] = 1
    expected[3, 0] = -1
    np.testing.assert_allclose(linalg.tensor(SY, SY), expected, atol=1e-15)


def test_tensor_mixed_product_identity():
    rng = rng_stream(1, 0)
    a, b, c, d = (random_complex(2, rng) for _ in range(4))
    lhs = linalg.tensor(a, b) @ linalg.tensor(c, d)
    rhs = linalg.tensor(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.tensor(np.array([[np.nan, 0], [0, 1]]))


# ------------------------------------------------------- partial transpose

def test_partial_transpose_fixes_maximally_mixed():
    m = np.eye(4) / 4
    np.testing.assert_array_equal(linalg.partial_transpose(m, (2, 2)), m)


def test_partial_transpose_bell_gives_half_swap():
    # index-by-index evaluation: PT of |Phi+><Phi+| is the two-qubit swap / 2
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    np.testing.assert_allclose(
        linalg.partial_transpose(bell_projector(), (2, 2)), swap / 2, atol=1e-15
    )


def test_partial_transpose_involution_bit_exact():
    # dyadic rational entries: the index permutation must round-trip exactly
    rng = rng_stream(2, 0)
    re = rng.integers(-8, 8, size=(6, 6)) / 16.0
    im = rng.integers(-8, 8, size=(6, 6)) / 16.0
    m = re + 1j * im
    m = m + m.conj().T
    for sub in ("A", "B"):
        pt = linalg.partial_transpose(m, (2, 3), sub)
        assert np.array_equal(linalg.partial_transpose(pt, (2, 3), sub), m)
        assert np.trace(pt) == np.trace(m)
        assert linalg.hermiticity_defect(pt) == 0.0


def test_partial_transpose_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4), (2, 3))


# ---------------------------------------------------------------- eigen ops

def test_herm_eigen_diagonal_sorted_ascending():
    w, _ = linalg.herm_eigen(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)


def test_herm_eigen_pauli_y():
    w, _ = linalg.herm_eigen(SY)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eigen_trace_and_reconstruction():
    rng = rng_stream(3, 0)
    m = random_hermitian(8, rng)
    w, v = linalg.herm_eigen(m)
    assert abs(np.sum(w) - np.trace(m).real) < 1e-10
    resid = np.max(np.abs(m - (v * w) @ v.conj().T))
    assert resid <= 1e-9 * np.max(np.abs(m))


def test_herm_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eigen_unitary_invariance():
    from entmoment.states import random_unitary

    rng = rng_stream(4, 0)
    for _ in range(10):
        m = random_hermitian(5, rng)
        u = random_unitary(5, rng)
        w1 = linalg.herm_eigenvalues(m)
        w2 = linalg.herm_eigenvalues(u @ m @ u.conj().T)
        np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_general_eigenvalues_triangular():
    m = np.array([[1.0, 5.0, 2.0], [0.0, 2.0, 7.0], [0.0, 0.0, 3.0]])
    np.testing.assert_allclose(sorted(linalg.general_eigenvalues(m).real), [1, 2, 3], atol=1e-12)


def test_general_eigenvalues_bell_rho_rho_tilde():
    rho = bell_projector()
    sig = linalg.tensor(SY, SY)
    rho_tilde = sig @ rho.conj() @ sig
    w = np.sort(linalg.general_eigenvalues(rho @ rho_tilde).real)[::-1]
    np.testing.assert_allclose(w, [1, 0, 0, 0], atol=1e-12)


def test_general_eigenvalues_match_characteristic_polynomial():
    # oracle: Faddeev-LeVerrier coefficients from power traces, rooted via
    # the companion matrix; independent of the QR eigensolver
    rng = rng_stream(5, 0)
    for _ in range(10):
        m = random_complex(4, rng)
        coeffs = [1.0 + 0j]
        mk = np.zeros((4, 4), dtype=complex)
        for k in range(1, 5):
            mk = m @ mk + coeffs[-1] * m
            coeffs.append(-np.trace(mk) / k)
        oracle = np.roots(coeffs)
        got = linalg.general_eigenvalues(m)
        det = np.prod(got)
        assert abs(det - np.linalg.det(m)) <= 1e-8 * max(1.0, abs(det))
        for z in got:
            assert np.min(np.abs(oracle - z)) < 1e-7


# ----------------------------------------------------------- sqrt and norm

def test_matrix_sqrt_psd_identity_and_diag():
    np.testing.assert_allclose(linalg.matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        linalg.matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
    )


def test_matrix_sqrt_psd_squares_back():
    rng = rng_stream(6, 0)
    g = random_complex(5, rng)
    m = g @ g.conj().T
    s = linalg.matrix_sqrt_psd(m)
    np.testing.assert_allclose(s @ s, m, atol=1e-8 * np.max(np.abs(m)))
    assert linalg.hermiticity_defect(s) < 1e-10


def test_matrix_sqrt_psd_rejects_negative():
    with pytest.raises(ValueError):
        linalg.matrix_sqrt_psd(np.diag([1.0, -0.5]))


# -------------------------------------------------------- shift operators

def test_shift_n2_is_swap():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    np.testing.assert_array_equal(linalg.cyclic_shift_matrix(2, 2), swap)


def test_shift_trace_is_local_dim():
    for n in (1, 2, 3, 4):
        for d in (2, 3, 4):
            if d**n > 300:
                continue
            v = linalg.cyclic_shift_matrix(n, d)
            assert np.trace(v).real == d


def test_shift_unitary():
    v = linalg.cyclic_shift_matrix(3, 3)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(27), atol=1e-15)


def test_shift_defining_property_n3():
    rng = rng_stream(7, 0)
    a, b, c = (random_complex(2, rng) for _ in range(3))
    v = linalg.cyclic_shift_matrix(3, 2)
    explicit = np.trace(v @ linalg.tensor(a, b, c))
    assert abs(explicit - np.trace(a @ b @ c)) < 1e-12


def test_shift_cap():
    with pytest.raises(ValueError):
        linalg.cyclic_shift_matrix(7, 4)  # 4**7 = 16384 > 4096


# ------------------------------------------------------------ cyclic trace
# Tr(V_(n) A_1 (x) ... (x) A_n) against the plain product trace Tr(A_1 ... A_n)

def test_cyclic_trace_pair_vs_explicit_swap():
    rng = rng_stream(8, 0)
    a, b = random_complex(2, rng), random_complex(2, rng)
    v = linalg.cyclic_shift_matrix(2, 2)
    explicit = np.trace(v @ linalg.tensor(a, b))
    assert abs(explicit - np.trace(a @ b)) < 1e-12


def test_cyclic_trace_identity_factors():
    v = linalg.cyclic_shift_matrix(3, 4)
    assert abs(np.trace(v @ linalg.tensor(*[np.eye(4)] * 3)) - 4.0) < 1e-14


def test_cyclic_trace_alternating_factors_vs_materialized():
    # Tr((rho rho~)^2) off the ladder chain against the explicit 256-dim shift contraction
    rng = rng_stream(9, 0)
    g = random_complex(4, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    sig = linalg.tensor(SY, SY)
    rho_tilde = sig @ rho.conj() @ sig
    fast = spa.ladder_power_sums(DensityMatrix(rho, (2, 2)))[1]
    v = linalg.cyclic_shift_matrix(4, 4)
    explicit = np.trace(v @ linalg.tensor(rho, rho_tilde, rho, rho_tilde))
    assert abs(fast - np.trace(np.linalg.matrix_power(rho @ rho_tilde, 2))) < 1e-12
    assert abs(fast - explicit) < 1e-10


def test_shift_equivalence_sweep():
    # 200 random tuples, n <= 4 and local dim <= 4 within the explicit cap
    rng = rng_stream(10, 0)
    count = 0
    while count < 200:
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        if d**n > 256:
            continue
        count += 1
        mats = [random_complex(d, rng) for _ in range(n)]
        v = linalg.cyclic_shift_matrix(n, d)
        explicit = np.trace(v @ linalg.tensor(*mats))
        fast = np.trace(functools.reduce(np.matmul, mats))
        assert abs(explicit - fast) <= 1e-10 * max(1.0, abs(explicit))


# ------------------------------------------------------ exact power traces

def test_exact_power_traces_match_float_for_well_conditioned():
    rng = rng_stream(11, 0)
    m = random_hermitian(4, rng)
    exact = linalg.exact_power_traces(m, 4)
    power = np.eye(4, dtype=complex)
    for n in range(1, 5):
        power = power @ m
        assert abs(float(exact[n - 1]) - np.trace(power).real) < 1e-10


# Two references.  The entrywise route holds the exactly symmetrized matrix
# as Fractions and multiplies it out entry by entry: independent, but slow,
# so it runs at d <= 3 and on small cases.  The integer route holds it as
# Python ints over one common power of two and takes object-dtype integer
# products; it checks everything larger and the adversarial cases.

def fraction_parts(m):
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    re = [[Fraction(0)] * d for _ in range(d)]
    im = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a = (Fraction(m[i, j].real) + Fraction(m[j, i].real)) / 2
            b = (Fraction(m[i, j].imag) - Fraction(m[j, i].imag)) / 2
            re[i][j] = re[j][i] = a
            im[i][j] = b
            im[j][i] = -b
    return re, im


def fraction_matmul(a, b):
    (are, aim), (bre, bim) = a, b
    d = len(are)
    cre = [[Fraction(0)] * d for _ in range(d)]
    cim = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for k in range(d):
            x, y = are[i][k], aim[i][k]
            if not x and not y:
                continue
            for j in range(d):
                cre[i][j] += x * bre[k][j] - y * bim[k][j]
                cim[i][j] += x * bim[k][j] + y * bre[k][j]
    return cre, cim


def fraction_power_traces(p, n_max):
    d = len(p[0])
    power, traces = p, []
    for n in range(1, n_max + 1):
        if n > 1:
            power = fraction_matmul(power, p)
        traces.append(sum(power[0][i][i] for i in range(d)))
    return traces


def int_parts(m):
    """((re, im), e): Python-int matrices, sharing no factor of two, with the
    exactly symmetrized m equal to (re + 1j*im) * 2**e; im is None when zero."""
    m = np.asarray(m, dtype=complex)
    mant, expo = np.frexp(np.stack([m.real, m.imag]))
    mant = (mant * 2.0**53).astype(np.int64)  # exact: |mant| < 1
    expo = np.where(mant != 0, expo - 53, 0)  # so e <= 0 and no shift is negative
    e = int(expo.min())
    re, im = mant.astype(object) << (expo - e).astype(object)
    re, im = re + re.T, im - im.T  # twice the symmetrized m
    low = np.bitwise_or.reduce(re | im, axis=None)
    shift = max((low & -low).bit_length() - 1, 0)  # common trailing zero bits
    return (re >> shift, im >> shift if im.any() else None), e - 1 + shift


def int_matmul(a, b):
    """Complex int matmul, a None part being zero: 1, 2 or 3 products (Gauss)."""
    (ar, ai), (br, bi) = a, b
    if ai is None:
        return ar @ br, None if bi is None else ar @ bi
    if bi is None:
        return ar @ br, ai @ br
    t1, t2 = ar @ br, ai @ bi
    return t1 - t2, (ar + ai) @ (br + bi) - t1 - t2


def int_power_traces(p, e, n_max):
    """Re Tr((p * 2**e)^n), n = 1..n_max, from the powers of p up to
    ceil(n_max/2): Tr(P^a P^b) = sum(P^a * (P^b).T) with a + b = n."""
    powers = [p]
    for _ in range(1, (n_max + 1) // 2):
        powers.append(int_matmul(powers[-1], p))
    traces = [np.trace(p[0])] if n_max else []
    for n in range(2, n_max + 1):
        (ar, ai), (br, bi) = powers[(n + 1) // 2 - 1], powers[n // 2 - 1]
        traces.append((ar * br.T).sum() - (0 if ai is None else (ai * bi.T).sum()))
    return [Fraction(int(t) << max(n * e, 0), 1 << max(-n * e, 0)) for n, t in enumerate(traces, 1)]


def int_route_traces(m, n_max):
    return int_power_traces(*int_parts(m), n_max)


def int_route_product_traces(a, b, n_max):
    (pa, ea), (pb, eb) = int_parts(a), int_parts(b)
    return int_power_traces(int_matmul(pa, pb), ea + eb, n_max)


def assert_traces_match_reference(m, n_max):
    got = linalg.exact_power_traces(m, n_max)
    assert all(type(t) is Fraction for t in got)
    assert got == fraction_power_traces(fraction_parts(m), n_max)


def family_states(d):
    rng = rng_stream(12, d)
    families = ("bell", "werner", "isotropic", "product-pure", "random-pure", "random-mixed")
    return [make_state(f, (d, d), p=0.7, rng=rng) for f in families if d == 2 or f not in ("bell", "werner")]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_power_traces_match_reference_for_every_family(d):
    # the entrywise route at d <= 3, the integer route at d = 4
    for state in family_states(d):
        sigma = spa.apply_spa_pt(state).matrix
        if d <= 3:
            assert_traces_match_reference(sigma, sigma.shape[0])
        else:
            assert linalg.exact_power_traces(sigma, sigma.shape[0]) == int_route_traces(sigma, sigma.shape[0])
        if d == 2:
            assert_traces_match_reference(state.matrix, 4)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("family", ["random-mixed", "random-pure"])
@pytest.mark.parametrize("d", [5, 6])
def test_exact_power_traces_match_int_route_at_d5_d6(d, family, stream):
    sigma = spa.apply_spa_pt(make_state(family, (d, d), rng=rng_stream(d, stream))).matrix
    assert linalg.exact_power_traces(sigma, d * d) == int_route_traces(sigma, d * d)


def test_int_route_matches_entrywise_route():
    rng = rng_stream(17, 0)
    for m in (random_hermitian(3, rng), random_hermitian(4, rng).real, 2.0**40 * bell_projector()):
        assert int_route_traces(m, 5) == fraction_power_traces(fraction_parts(m), 5)


def test_exact_product_power_traces_match_reference():
    for state in family_states(2):
        flipped = measures.spin_flip(state)
        expected = fraction_power_traces(
            fraction_matmul(fraction_parts(state.matrix), fraction_parts(flipped)), 4)
        assert linalg.exact_product_power_traces(state.matrix, flipped, 4) == expected


def test_exact_product_power_traces_reject_factors_of_different_sizes():
    with pytest.raises(ValueError, match="differ"):
        linalg.exact_product_power_traces(np.eye(4), np.eye(3), 2)


def test_exact_traces_accept_strided_views():
    big = np.zeros((4, 8), dtype=complex)
    big[:, ::2] = random_hermitian(4, rng_stream(18, 0))
    view = big[:, ::2]
    assert not view.flags.c_contiguous and not view.T.flags.c_contiguous
    assert_traces_match_reference(view, 4)
    expected = fraction_power_traces(fraction_matmul(fraction_parts(view), fraction_parts(view.T)), 3)
    assert linalg.exact_product_power_traces(view, view.T, 3) == expected


def test_exact_power_traces_zero_matrix():
    assert linalg.exact_power_traces(np.zeros((3, 3)), 3) == [Fraction(0)] * 3
    assert linalg.exact_product_power_traces(np.zeros((3, 3)), np.eye(3), 2) == [Fraction(0)] * 2


def test_exact_traces_of_no_powers_and_negative_counts():
    m = np.diag([0.5, 0.25])
    assert linalg.exact_power_traces(m, 0) == fraction_power_traces(fraction_parts(m), 0) == int_route_traces(m, 0) == []
    assert linalg.exact_product_power_traces(m, m, 0) == int_route_product_traces(m, m, 0) == []
    with pytest.raises(ValueError, match="n_max"):
        linalg.exact_power_traces(m, -1)
    with pytest.raises(ValueError, match="n_max"):
        linalg.exact_product_power_traces(m, m, -1)


def test_exact_power_traces_entries_spanning_1e300():
    rng = rng_stream(13, 0)
    upper = np.triu_indices(4)
    scales = 10.0 ** np.linspace(0, -300, len(upper[0]))
    m = np.zeros((4, 4), dtype=complex)
    m[upper] = scales * (rng.standard_normal(len(scales)) + 1j * rng.standard_normal(len(scales)))
    m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    assert_traces_match_reference(m, 4)


def test_exact_power_traces_subnormals_and_negative_zero():
    tiny = 5e-324
    m = np.array([
        [1.0, -0.0 + 3 * tiny * 1j, 2.5e-310],
        [-0.0 - 3 * tiny * 1j, -0.0, tiny - 1e-320j],
        [2.5e-310, tiny + 1e-320j, -tiny],
    ])
    assert_traces_match_reference(m, 3)
    assert linalg.exact_product_power_traces(m, m, 2) == fraction_power_traces(
        fraction_matmul(fraction_parts(m), fraction_parts(m)), 2)


def test_exact_power_traces_symmetrize_near_hermitian_input():
    rng = rng_stream(14, 0)
    h = random_hermitian(4, rng)
    m = h + 1e-10 * random_complex(4, rng)
    assert 0 < linalg.hermiticity_defect(m) <= linalg.HERMITICITY_TOL
    assert_traces_match_reference(m, 4)
    b = h + 1e-10 * random_complex(4, rng)
    expected = fraction_power_traces(fraction_matmul(fraction_parts(m), fraction_parts(b)), 4)
    assert linalg.exact_product_power_traces(m, b, 4) == expected


def decomposition(*mats):
    mats = [np.asarray(m, dtype=complex) for m in mats]
    return linalg._decompose(mats, linalg._residues(len(mats[0])).gather(len(mats)))


def embedding(m):
    """[[R, -I], [I, R]] of m with its imaginary diagonal dropped."""
    m = np.asarray(m, dtype=complex)
    im = m.imag - np.diag(np.diag(m.imag))
    return np.block([[m.real, -im], [im, m.real]])


def prime_counts(monkeypatch):
    """The prime count k of every later trace call, as it is made."""
    counts, columns = [], linalg._Residues.columns

    def spy(self, k, shifts):
        counts.append(k)
        return columns(self, k, shifts)

    monkeypatch.setattr(linalg._Residues, "columns", spy)
    return counts


def test_decomposition_ignores_diagonal_imaginary_roundoff(monkeypatch):
    rng = rng_stream(15, 0)
    sigma = spa.apply_spa_pt(make_state("random-pure", (3, 3), rng=rng)).matrix
    counts = prime_counts(monkeypatch)
    for clean in (random_hermitian(4, rng), random_hermitian(4, rng).real, sigma):
        clean = clean - 1j * np.diag(np.diag(clean).imag)
        noisy = clean + 1e-20j * np.diag(rng.standard_normal(len(clean)))
        a, b = decomposition(clean), decomposition(noisy)
        assert (a.e, a.log2_norm, a.shifts) == (b.e, b.log2_norm, b.shifts)
        np.testing.assert_array_equal(a.mant, b.mant)
        np.testing.assert_array_equal(a.shift, b.shift)
        assert linalg.exact_power_traces(noisy, 5) == linalg.exact_power_traces(clean, 5)
        assert counts[-2] == counts[-1]
    # a real matrix with imaginary roundoff on its diagonal only decomposes as a real one
    dim = len(sigma)
    real = decomposition(sigma.real + 1e-20j * np.eye(dim))
    assert not real.mant[:, dim:, :dim].any() and not real.mant[:, :dim, dim:].any()


def test_decomposition_is_exact_from_the_smallest_exponent():
    rng = rng_stream(16, 0)
    mats = [random_hermitian(4, rng), random_hermitian(3, rng).real, 0.25 * np.eye(3), 2.0**40 * bell_projector()]
    mats += [spa.apply_spa_pt(state).matrix for state in family_states(3)]
    for m in mats:
        s = decomposition(m)
        assert np.abs(s.mant).max() < 2**53 and s.shift.min() == 0 and s.shift.max() < s.shifts
        np.testing.assert_array_equal(np.ldexp(s.mant[0].astype(float), s.shift[0] + s.e[0] + 1), embedding(m))
        assert_traces_match_reference(m, 4)  # 2**40 * bell: a positive exponent


_ENTRIES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_ROUNDOFF = st.floats(min_value=-1e-12, max_value=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_traces_property_random_small_hermitian(data):
    # each factor comes real and complex, with imaginary roundoff on its
    # diagonal that symmetrizing cancels; every real/complex product is checked
    dim = data.draw(st.integers(1, 4))
    n_max = data.draw(st.integers(1, 5))
    pairs = []
    for _ in range(2):
        re = data.draw(arrays(float, (dim, dim), elements=_ENTRIES))
        im = data.draw(arrays(float, (dim, dim), elements=_ENTRIES))
        roundoff = 1j * np.diag(data.draw(arrays(float, dim, elements=_ROUNDOFF)))
        m = re + 1j * im
        h = (m + m.conj().T) / 2
        pairs.append((h.real + roundoff, h + roundoff))
        real = decomposition(h.real + roundoff)
        assert not real.mant[:, dim:, :dim].any()
    for a in pairs[0]:
        assert_traces_match_reference(a, n_max)
        for b in pairs[1]:
            expected = fraction_power_traces(fraction_matmul(fraction_parts(a), fraction_parts(b)), n_max)
            assert linalg.exact_product_power_traces(a, b, n_max) == expected


# ------------------------------------------- residue route, adversarial cases

@st.composite
def hermitian_matrices(draw, dim):
    """Exactly Hermitian, real or complex, with entries drawn from a band of
    binary exponents up to 2100 wide: subnormals, -0.0 and 1e300 included."""
    low = draw(st.integers(-1074, 1020))
    high = draw(st.integers(low, min(low + draw(st.sampled_from([0, 60, 600, 2100])), 1020)))

    def entries(shape):
        mant = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
        return np.ldexp(mant, draw(arrays(int, shape, elements=st.integers(low, high))))

    m = np.triu(entries((dim, dim)), 1)
    if draw(st.booleans()):
        m = m + 1j * np.triu(entries((dim, dim)), 1)
    return m + m.conj().T + np.diag(entries(dim))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_residue_route_matches_int_route_on_extreme_entries(data):
    dim = data.draw(st.integers(1, 8))
    n_max = data.draw(st.integers(1, 2 * dim))
    a, b = data.draw(hermitian_matrices(dim)), data.draw(hermitian_matrices(dim))
    assert linalg.exact_power_traces(a, n_max) == int_route_traces(a, n_max)
    assert linalg.exact_product_power_traces(a, b, n_max) == int_route_product_traces(a, b, n_max)


def rank_one(data, dim, sign):
    """sign * v v^H with |v_i| = 1 - 2**-27 and random phases of 1, i: every
    entry sits just below a power of two, so the traces come within a few
    bits per power of the bound the prime count is taken from."""
    phases = np.array(data.draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=dim, max_size=dim)))
    v = (1 - 2.0**-27) * phases * 2.0 ** data.draw(st.integers(-300, 300))
    return sign * np.outer(v, v.conj())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_residue_route_near_the_prime_bound(data):
    # rank-one traces reach the norm bound within a factor of about sqrt(2)
    # per power; negative-definite ones have negative odd traces
    dim = data.draw(st.integers(1, 8))
    n_max = data.draw(st.integers(1, 2 * dim))
    m = rank_one(data, dim, data.draw(st.sampled_from([1, -1])))
    got = linalg.exact_power_traces(m, n_max)
    assert got == int_route_traces(m, n_max)
    if m[0, 0].real < 0:
        assert all(t < 0 for t in got[::2]) and all(t > 0 for t in got[1::2])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_residue_route_on_non_commuting_products(data):
    dim = data.draw(st.integers(2, 8))
    n_max = data.draw(st.integers(1, 2 * dim))
    # a rank-one factor with every entry nonzero against a generic one: ab and
    # ba differ, their power traces must not
    a = rank_one(data, dim, data.draw(st.sampled_from([1, -1])))
    b = data.draw(hermitian_matrices(dim))
    got = linalg.exact_product_power_traces(a, b, n_max)
    assert got == int_route_product_traces(a, b, n_max)
    assert linalg.exact_product_power_traces(b, a, n_max) == got


def test_too_few_primes_raise_instead_of_returning(monkeypatch):
    # two primes short, every trace of a rank-one matrix near the bound wraps
    # around its modulus; the check prime must catch it
    count = linalg._Residues.count
    monkeypatch.setattr(linalg._Residues, "count", lambda self, bits: max(count(self, bits) - 2, 1))
    m = np.outer([1, -1, 1, 1], [1, -1, 1, 1]) * (1 - 2.0**-26)
    with pytest.raises(ArithmeticError):
        linalg.exact_power_traces(m, 8)
    with pytest.raises(ArithmeticError):
        linalg.exact_product_power_traces(m, m, 4)


def test_prime_width_keeps_sums_exact():
    for dim in (1, 2, 4, 9, 16, 36, 255, 10**4):
        w = linalg._prime_width(dim)
        h = 2 ** (w - 1) + 4
        assert 2 * dim * dim * h * h + h <= 2**53 < 2 * dim * dim * (2 * h - 4) ** 2
