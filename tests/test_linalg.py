"""mat-core primitives against independent small-case oracles."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entmoment import inversion, linalg, measures, protocols, spa
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


# ------------------------------------------------------------------ Sigma

def test_sigma_yy_conjugate_is_the_kron_product_bit_for_bit():
    # the signed reversal against Sigma x Sigma with Sigma from np.kron, on a
    # stack with no zero entry (a product's sums of zero terms make a -0 entry +0)
    rng = rng_stream(1, 0)
    x = np.array([random_complex(4, rng) for _ in range(50)])
    sigma = np.kron(SY, SY)
    assert linalg.sigma_yy_conjugate(x).tobytes() == (sigma @ x @ sigma).tobytes()


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

    def pt_a(x):  # the partial transpose on A, the full transpose of the one on B
        return linalg.partial_transpose(x, (2, 3)).T

    for transpose in (lambda x: linalg.partial_transpose(x, (2, 3)), pt_a):
        pt = transpose(m)
        assert np.array_equal(transpose(pt), m)
        assert np.trace(pt) == np.trace(m)
        assert linalg.hermiticity_defect(pt) == 0.0


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4), (4, 4)])
def test_partial_transpose_on_a_is_the_transpose_of_the_one_on_b(dims):
    # oracle: the index permutation that transposes the A factor only
    da, db = dims
    rng = rng_stream(7, da * 10 + db)
    m = random_complex(da * db, rng)
    want = m.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    assert np.array_equal(np.ascontiguousarray(linalg.partial_transpose(m, dims).T), want)


def test_partial_transpose_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4), (2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imaginary-nan"])
def test_non_finite_entries_are_refused(bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = m[2, 1] = bad
    for refuse in (lambda: linalg.partial_transpose(m, (2, 2)), lambda: linalg.exact_power_traces(m, 2)):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            refuse()


# ---------------------------------------------------------------- eigen ops

def test_herm_eigen_diagonal_sorted_ascending():
    w = linalg.herm_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)


def test_herm_eigen_pauli_y():
    w = linalg.herm_eigenvalues(SY)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_herm_eigen_trace_and_reconstruction():
    rng = rng_stream(3, 0)
    m = random_hermitian(8, rng)
    w = linalg.herm_eigenvalues(m)
    _, v = np.linalg.eigh(m)
    assert abs(np.sum(w) - np.trace(m).real) < 1e-10
    resid = np.max(np.abs(m - (v * w) @ v.conj().T))
    assert resid <= 1e-9 * np.max(np.abs(m))


def test_herm_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    sig = np.kron(SY, SY)
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
    np.testing.assert_allclose(linalg._psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        linalg._psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
    )
    # eigenvalues within a state's tolerance below zero are clamped to zero
    np.testing.assert_array_equal(linalg._psd_sqrt(np.diag([-0.5e-9, 4.0])), np.diag([0.0, 2.0]))


def test_matrix_sqrt_psd_squares_back():
    rng = rng_stream(6, 0)
    g = random_complex(5, rng)
    m = g @ g.conj().T
    s = linalg._psd_sqrt(m)
    np.testing.assert_allclose(s @ s, m, atol=1e-8 * np.max(np.abs(m)))
    assert linalg.hermiticity_defect(s) < 1e-10



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
    explicit = np.trace(v @ np.kron(np.kron(a, b), c))
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
    explicit = np.trace(v @ np.kron(a, b))
    assert abs(explicit - np.trace(a @ b)) < 1e-12


def test_cyclic_trace_identity_factors():
    v = linalg.cyclic_shift_matrix(3, 4)
    assert abs(np.trace(v @ functools.reduce(np.kron, [np.eye(4)] * 3)) - 4.0) < 1e-14


def test_cyclic_trace_alternating_factors_vs_materialized():
    # Tr((rho rho~)^2) off the ladder chain against the explicit 256-dim shift contraction
    rng = rng_stream(9, 0)
    g = random_complex(4, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    sig = np.kron(SY, SY)
    rho_tilde = sig @ rho.conj() @ sig
    fast = spa.ladder_power_sums(DensityMatrix(rho, (2, 2)))[1]
    v = linalg.cyclic_shift_matrix(4, 4)
    explicit = np.trace(v @ functools.reduce(np.kron, [rho, rho_tilde, rho, rho_tilde]))
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
        explicit = np.trace(v @ functools.reduce(np.kron, mats))
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


def flip(m):
    """Sigma m* Sigma, Sigma = sigma_y (x) sigma_y: a signed permutation of
    the entries, so the float products are exact."""
    sigma = np.kron(SY, SY)
    return sigma @ np.conj(m) @ sigma


def fraction_flip_traces(m, n_max):
    return fraction_power_traces(fraction_matmul(fraction_parts(m), fraction_parts(flip(m))), n_max)


def assert_traces_match_reference(m, n_max):
    got = list(linalg.exact_power_traces(m, n_max))
    assert all(type(t) is Fraction for t in got)
    assert got == fraction_power_traces(fraction_parts(m), n_max)


def family_states(d):
    rng = rng_stream(12, d)
    families = ("bell", "werner", "isotropic", "product-pure", "random-pure", "random-mixed")
    return [make_state(f, (d, d), p=0.7 if f in ("werner", "isotropic") else None, rng=rng)
            for f in families if d == 2 or f not in ("bell", "werner")]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_power_traces_match_reference_for_every_family(d):
    # the entrywise route at d <= 3, the integer route at d = 4
    for state in family_states(d):
        sigma = spa.apply_spa_pt(state).matrix
        if d <= 3:
            assert_traces_match_reference(sigma, sigma.shape[0])
        else:
            assert list(linalg.exact_power_traces(sigma, sigma.shape[0])) == int_route_traces(sigma, sigma.shape[0])
        if d == 2:
            assert_traces_match_reference(state.matrix, 4)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("family", ["random-mixed", "random-pure"])
@pytest.mark.parametrize("d", [5, 6])
def test_exact_power_traces_match_int_route_at_d5_d6(d, family, stream):
    sigma = spa.apply_spa_pt(make_state(family, (d, d), rng=rng_stream(d, stream))).matrix
    assert list(linalg.exact_power_traces(sigma, d * d)) == int_route_traces(sigma, d * d)


def test_int_route_matches_entrywise_route():
    rng = rng_stream(17, 0)
    for m in (random_hermitian(3, rng), random_hermitian(4, rng).real, 2.0**40 * bell_projector()):
        assert int_route_traces(m, 5) == fraction_power_traces(fraction_parts(m), 5)


def test_exact_product_power_traces_match_reference():
    for state in family_states(2):
        flipped = measures.spin_flip(state)
        np.testing.assert_array_equal(flip(state.matrix), flipped)
        expected = fraction_power_traces(
            fraction_matmul(fraction_parts(state.matrix), fraction_parts(flipped)), 4)
        assert list(linalg.exact_product_power_traces(state.matrix, 4)) == expected


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (8, 8), (16, 16), (4, 2)])
def test_exact_product_power_traces_refuse_any_shape_but_4x4(shape):
    m = np.eye(*shape) / 4
    with pytest.raises(ValueError, match="4 x 4|square"):
        linalg.exact_product_power_traces(m, 2)


def test_exact_traces_accept_strided_views():
    big = np.zeros((4, 8), dtype=complex)
    big[:, ::2] = random_hermitian(4, rng_stream(18, 0))
    view = big[:, ::2]
    assert not view.flags.c_contiguous and not view.T.flags.c_contiguous
    assert_traces_match_reference(view, 4)
    assert list(linalg.exact_product_power_traces(view, 3)) == fraction_flip_traces(view, 3)
    assert list(linalg.exact_product_power_traces(view.T, 3)) == fraction_flip_traces(view.T, 3)


def test_exact_power_traces_zero_matrix():
    assert list(linalg.exact_power_traces(np.zeros((3, 3)), 3)) == [Fraction(0)] * 3
    assert list(linalg.exact_product_power_traces(np.zeros((4, 4)), 2)) == [Fraction(0)] * 2


def test_exact_traces_of_no_powers_and_negative_counts():
    m = np.diag([0.5, 0.25, 0.125, 0.125])
    assert list(linalg.exact_power_traces(m, 0)) == fraction_power_traces(fraction_parts(m), 0) == int_route_traces(m, 0) == []
    assert list(linalg.exact_product_power_traces(m, 0)) == int_route_product_traces(m, flip(m), 0) == []
    with pytest.raises(ValueError, match="n_max"):
        linalg.exact_power_traces(m, -1)
    with pytest.raises(ValueError, match="n_max"):
        linalg.exact_product_power_traces(m, -1)


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
    m4 = np.zeros((4, 4), dtype=complex)  # the same entries on 4 x 4, for the spin-flip product
    m4[1:, 1:] = m
    m4[0, 3], m4[3, 0] = tiny + 1e-320j, tiny - 1e-320j
    assert list(linalg.exact_product_power_traces(m4, 4)) == fraction_flip_traces(m4, 4)


def test_exact_power_traces_symmetrize_near_hermitian_input():
    rng = rng_stream(14, 0)
    h = random_hermitian(4, rng)
    m = h + 1e-10 * random_complex(4, rng)
    assert 0 < linalg.hermiticity_defect(m) <= linalg.HERMITICITY_TOL
    assert_traces_match_reference(m, 4)
    assert list(linalg.exact_product_power_traces(m, 4)) == fraction_flip_traces(m, 4)


def decomposition(m):
    return linalg._decompose(np.asarray(m, dtype=complex))


def parts(m):
    """(R, I) of m with its imaginary diagonal set to 0."""
    m = np.asarray(m, dtype=complex)
    return np.array([m.real, m.imag - np.diag(np.diag(m.imag))])


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
    for m in (random_hermitian(4, rng), random_hermitian(4, rng).real, sigma):
        clean = m - 1j * np.diag(np.diag(m).imag)
        noisy = clean + 1e-20j * np.diag(rng.standard_normal(len(m)))
        a, b = decomposition(clean), decomposition(noisy)
        assert (a.e, a.log2_norm, a.shifts) == (b.e, b.log2_norm, b.shifts)
        np.testing.assert_array_equal(a.mant, b.mant)
        np.testing.assert_array_equal(a.shift, b.shift)
        # one factor, and the spin-flip product on 4 x 4
        for traces in [linalg.exact_power_traces] + [linalg.exact_product_power_traces] * (len(m) == 4):
            assert list(traces(noisy, 5)) == list(traces(clean, 5))
            assert counts[-2] == counts[-1]
    # a real matrix with imaginary roundoff on its diagonal only decomposes as a real one
    real = decomposition(sigma.real + 1e-20j * np.eye(len(sigma)))
    assert not real.mant[1].any()


def test_decomposition_is_exact_from_the_smallest_exponent():
    rng = rng_stream(16, 0)
    mats = [random_hermitian(4, rng), random_hermitian(3, rng).real, 0.25 * np.eye(3), 2.0**40 * bell_projector()]
    mats += [spa.apply_spa_pt(state).matrix for state in family_states(3)]
    for m in mats:
        s = decomposition(m)
        assert np.abs(s.mant).max() < 2**53 and s.shift.min() == 0 and s.shift.max() < s.shifts
        np.testing.assert_array_equal(np.ldexp(s.mant.astype(float), s.shift + s.e + 1), parts(m))
        assert_traces_match_reference(m, 4)  # 2**40 * bell: a positive exponent


_ENTRIES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_ROUNDOFF = st.floats(min_value=-1e-12, max_value=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_traces_property_random_small_hermitian(data):
    # each matrix comes real and complex, with imaginary roundoff on its
    # diagonal that symmetrizing cancels; a 4 x 4 one also takes the spin-flip product
    n_max = data.draw(st.integers(1, 5))
    for dim in (data.draw(st.integers(1, 4)), 4):
        re = data.draw(arrays(float, (dim, dim), elements=_ENTRIES))
        im = data.draw(arrays(float, (dim, dim), elements=_ENTRIES))
        roundoff = 1j * np.diag(data.draw(arrays(float, dim, elements=_ROUNDOFF)))
        m = re + 1j * im
        h = (m + m.conj().T) / 2
        assert not decomposition(h.real + roundoff).mant[1].any()
        for a in (h.real + roundoff, h + roundoff):
            assert_traces_match_reference(a, n_max)
            if dim == 4:
                assert list(linalg.exact_product_power_traces(a, n_max)) == fraction_flip_traces(a, n_max)


# ------------------------------------------- residue route, adversarial cases

#: 30 examples a property at the default budget, 600 under `--hypothesis-profile=ci`
_RESIDUE_EXAMPLES = settings.default.max_examples * 3 // 10

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


@settings(max_examples=_RESIDUE_EXAMPLES, deadline=None)
@given(data=st.data())
def test_residue_route_matches_int_route_on_extreme_entries(data):
    dim = data.draw(st.integers(1, 8))
    n_max = data.draw(st.integers(1, 2 * dim))
    a, b = data.draw(hermitian_matrices(dim)), data.draw(hermitian_matrices(4))
    assert list(linalg.exact_power_traces(a, n_max)) == int_route_traces(a, n_max)
    assert list(linalg.exact_product_power_traces(b, n_max)) == int_route_product_traces(b, flip(b), n_max)


def rank_one(data, dim, sign):
    """sign * v v^H with |v_i| = 1 - 2**-27 and random phases of 1, i: every
    entry sits just below a power of two, so the traces come within a few
    bits per power of the bound the prime count is taken from."""
    phases = np.array(data.draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=dim, max_size=dim)))
    v = (1 - 2.0**-27) * phases * 2.0 ** data.draw(st.integers(-300, 300))
    return sign * np.outer(v, v.conj())


@settings(max_examples=_RESIDUE_EXAMPLES, deadline=None)
@given(data=st.data())
def test_residue_route_near_the_prime_bound(data):
    # rank-one traces reach the norm bound within a factor of about sqrt(2)
    # per power; negative-definite ones have negative odd traces.  The
    # spin-flip product of a rank-one m reaches it when its phases make
    # |v^T Sigma v| = |v|**2
    dim = data.draw(st.integers(1, 8))
    n_max = data.draw(st.integers(1, 2 * dim))
    m = rank_one(data, dim, data.draw(st.sampled_from([1, -1])))
    got = list(linalg.exact_power_traces(m, n_max))
    assert got == int_route_traces(m, n_max)
    if m[0, 0].real < 0:
        assert all(t < 0 for t in got[::2]) and all(t > 0 for t in got[1::2])
    m = rank_one(data, 4, data.draw(st.sampled_from([1, -1])))
    assert list(linalg.exact_product_power_traces(m, n_max)) == int_route_product_traces(m, flip(m), n_max)


@settings(max_examples=_RESIDUE_EXAMPLES, deadline=None)
@given(data=st.data())
def test_residue_route_on_non_commuting_products(data):
    n_max = data.draw(st.integers(1, 8))
    # a rank-one m with every entry nonzero plus a generic one: m m~ and m~ m
    # differ, their power traces must not, and m~ flips back to m
    m = rank_one(data, 4, data.draw(st.sampled_from([1, -1]))) + data.draw(hermitian_matrices(4))
    got = list(linalg.exact_product_power_traces(m, n_max))
    assert got == int_route_product_traces(m, flip(m), n_max)
    assert list(linalg.exact_product_power_traces(flip(m), n_max)) == got


# ------------------------------------------- the integer record of the traces

def test_power_traces_record_reads_as_its_fractions():
    m = np.diag([0.5, 0.25, 0.125, 0.125])
    got = linalg.exact_power_traces(m, 3)
    assert got.e <= 0 and len(got) == 3
    assert [got[0], got[-1]] == [Fraction(1), Fraction(0.5**3 + 0.25**3 + 2 * 0.125**3)]
    assert list(got) == [got[i] for i in range(3)] == fraction_power_traces(fraction_parts(m), 3)
    assert got.floats() == [float(t) for t in got]
    with pytest.raises(IndexError):
        got[3]


def assert_inverts_like_its_fractions(record):
    fractions = list(record)
    assert record.floats() == [float(t) for t in fractions]
    a, b = inversion.spectrum_from_power_sums(record), inversion.spectrum_from_power_sums(fractions)
    assert a.values.tobytes() == b.values.tobytes() and a.flags == b.flags


# the example budget comes from the hypothesis profile (--hypothesis-profile=ci runs more)
@settings(deadline=None, derandomize=True)
@given(family=st.sampled_from(["random-mixed", "random-pure", "product-pure", "werner", "bell", "isotropic"]),
       d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
def test_power_traces_record_matches_the_oracles_and_inverts_like_its_fractions(family, d, seed, p):
    # the spectrum pipeline's channel traces at d = 2..4, the ladder's on 2x2 states;
    # bell and werner are two-qubit
    d = 2 if family in ("bell", "werner") else d
    state = make_state(family, (d, d), p=p if family in ("werner", "isotropic") else None, rng=rng_stream(seed, 0))
    sigma = spa.apply_spa_pt(state).matrix
    record = protocols.spectrum_power_sums(state)
    assert list(record) == int_route_traces(sigma, d * d)
    assert_inverts_like_its_fractions(record)
    if d == 2:
        ladder = protocols.exact_moment_fractions(state)
        assert list(ladder) == fraction_flip_traces(state.matrix, 4)
        assert_inverts_like_its_fractions(ladder)


def test_too_few_primes_raise_instead_of_returning(monkeypatch):
    # two primes short, every trace of a rank-one matrix near the bound wraps
    # around its modulus; the check prime must catch it
    count = linalg._Residues.count
    monkeypatch.setattr(linalg._Residues, "count", lambda self, bits: max(count(self, bits) - 2, 1))
    m = np.outer([1, -1, 1, 1], [1, -1, 1, 1]) * (1 - 2.0**-26)
    with pytest.raises(ArithmeticError):
        linalg.exact_power_traces(m, 8)
    with pytest.raises(ArithmeticError):
        linalg.exact_product_power_traces(m, 4)


def test_prime_width_keeps_sums_exact():
    # residues within h of zero: a trace sums dim**2 products of at most h**2,
    # and _reduce needs |x| + h <= 2**53; the next width up breaks the bound
    # (from dim = 2: at dim = 1 the width stops at 26, where 2**s mod p and
    # r * (I - I^T) stay below 2**52)
    for dim in (1, 2, 4, 9, 16, 25, 36, 64, 255, 10**4):
        w = linalg._prime_width(dim)
        h = 2 ** (w - 1) + 4
        assert dim * dim * h * h + h <= 2**53
        assert w == 26 and dim == 1 or dim * dim * (2 * h - 4) ** 2 > 2**53
    # the ladder's first step multiplies the unreduced A + rB and the spin
    # flip of A - rB, entries up to 2h: four products of (2h)**2 at dim = 4
    h = 2 ** (linalg._prime_width(4) - 1) + 4
    assert 4 * (2 * h) ** 2 + h <= 2**53


@pytest.mark.parametrize("dim", [1, 4, 9, 36])
def test_every_prime_is_one_mod_four_with_a_root_of_minus_one(dim):
    res = linalg._Residues(dim)
    k = res.count(2000)
    _, p_col, _, root_col, _ = res.columns(k + 1, 1)  # as a trace call takes them
    assert res.crt(k)[2] == res.primes[k]  # the check prime is the next one
    assert res.primes == sorted(set(res.primes), reverse=True) and res.primes[0] < 2**res.width
    for p, r in zip(res.primes, res.roots):
        assert p % 4 == 1 and linalg._is_prime(p)
        assert 0 < r <= p // 2 and r * r % p == p - 1
    # the columns carry the same roots, one per prime
    assert p_col[:, 0, 0].tolist() == res.primes[: k + 1]
    assert root_col[:, 0, 0].tolist() == res.roots[: k + 1]
