"""Dense complex linear algebra for small multi-copy operator spaces.

Everything here works on plain ``numpy`` arrays of complex128.  The cyclic
shift operator defines the trace identity

    Tr(V_(n) A_1 (x) ... (x) A_n) = Tr(A_1 A_2 ... A_n)

that lets multi-copy expectation values collapse to products of the small
single-copy matrices (``spa.ladder_power_sums`` forms them), so nothing of
dimension ``local_dim**n`` is built outside tests and the selftest.

The exact power traces of ideal mode hold the exactly symmetrized matrix as
Python ints over its narrowest common power of two and take the powers on
those ints: one integer product per real matrix product, three per complex.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: max absolute deviation from m == m.conj().T accepted as "Hermitian"
HERMITICITY_TOL = 1e-9

#: eigenvalues above -PSD_CLAMP are treated as nonnegative
PSD_CLAMP = 1e-9

#: largest dimension at which shift operators may be materialized
SHIFT_DIM_CAP = 4096


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute entry of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.1e})")
    return a


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, first factor slowest index."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = as_complex_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_complex_matrix(f))
    return out


def partial_transpose(m, dims: tuple[int, int], subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one tensor factor only.

    Parameters
    ----------
    m : array_like
        Square matrix on a dimA*dimB space, A the slow index.
    dims : (dimA, dimB)
    subsystem : "A" or "B"
        Which factor's indices are transposed.

    The operation is a pure index permutation: on exact (binary rational)
    inputs it is bit-exact, trace preserving, Hermiticity preserving and an
    involution.
    """
    a = as_complex_matrix(m)
    da, db = int(dims[0]), int(dims[1])
    if da * db != a.shape[0]:
        raise ValueError(f"dims {dims} do not match matrix dimension {a.shape[0]}")
    t = a.reshape(da, db, da, db)
    if subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return t.reshape(da * db, da * db)


def herm_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input is
    rejected if it deviates from Hermiticity by more than HERMITICITY_TOL.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    return w, v


def herm_eigenvalues(m) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix."""
    return np.linalg.eigvalsh(require_hermitian(m))


def general_eigenvalues(m) -> np.ndarray:
    """Unordered complex spectrum of an arbitrary square matrix.

    Convergence failures of the underlying QR iteration are reported as
    ValueError rather than leaking the backend exception type.
    """
    a = as_complex_matrix(m)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise ValueError(f"eigenvalue iteration failed to converge: {exc}") from exc


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; anything more
    negative is an error.
    """
    w, v = herm_eigen(m)
    if w[0] < -PSD_CLAMP:
        raise ValueError(f"matrix has significantly negative spectrum (min {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def cyclic_shift_matrix(n: int, local_dim: int) -> np.ndarray:
    """Explicit cyclic shift operator V_(n) on n factors of size local_dim.

    Basis action: |j1 j2 ... jn> -> |j2 ... jn j1>.  This direction is the
    one for which Tr(V (x)_i A_i) equals the left-to-right product trace
    Tr(A_1 ... A_n); the opposite rotation yields the reversed product.
    """
    if n < 1 or local_dim < 1:
        raise ValueError("n and local_dim must be positive")
    dim = local_dim**n
    if dim > SHIFT_DIM_CAP:
        raise ValueError(f"shift operator dimension {dim} exceeds cap {SHIFT_DIM_CAP}")
    block = local_dim ** (n - 1)
    src = np.arange(dim)
    dest = (src % block) * local_dim + src // block
    v = np.zeros((dim, dim), dtype=complex)
    v[dest, src] = 1.0
    return v


def _scaled_integer_parts(m: np.ndarray):
    """((re, im), e): Python-int matrices, sharing no factor of two, with the
    exactly symmetrized m equal to (re + 1j*im) * 2**e; im is None when zero.
    Symmetrizing before e is fixed cancels diagonal imaginary roundoff."""
    mant, expo = np.frexp(np.stack([m.real, m.imag]))
    mant = (mant * 2.0**53).astype(np.int64)  # exact: |mant| < 1
    expo = np.where(mant != 0, expo - 53, 0)  # so e <= 0 and no shift is negative
    e = int(expo.min())
    re, im = mant.astype(object) << (expo - e).astype(object)
    re, im = re + re.T, im - im.T  # twice the symmetrized m
    low = np.bitwise_or.reduce(re | im, axis=None)
    shift = max((low & -low).bit_length() - 1, 0)  # common trailing zero bits
    return (re >> shift, im >> shift if im.any() else None), e - 1 + shift


def _int_matmul(a, b):
    """Complex int matmul, a None part being zero: 1, 2 or 3 products (Gauss)."""
    (ar, ai), (br, bi) = a, b
    if ai is None:
        return ar @ br, None if bi is None else ar @ bi
    if bi is None:
        return ar @ br, ai @ br
    t1, t2 = ar @ br, ai @ bi
    return t1 - t2, (ar + ai) @ (br + bi) - t1 - t2


def _scaled_power_traces(p, e: int, n_max: int) -> list[Fraction]:
    """Re Tr((p * 2**e)^n), n = 1..n_max, from the powers of p up to
    ceil(n_max/2): Tr(P^a P^b) = sum(P^a * (P^b).T) with a + b = n."""
    powers = [p]
    for _ in range(1, (n_max + 1) // 2):
        powers.append(_int_matmul(powers[-1], p))
    traces = [np.trace(p[0])]
    for n in range(2, n_max + 1):
        (ar, ai), (br, bi) = powers[(n + 1) // 2 - 1], powers[n // 2 - 1]
        traces.append((ar * br.T).sum() - (0 if ai is None else (ai * bi.T).sum()))
    return [Fraction(int(t) << max(n * e, 0), 1 << max(-n * e, 0)) for n, t in enumerate(traces, 1)]


def exact_power_traces(m, n_max: int) -> list[Fraction]:
    """Tr(m^n) for n = 1..n_max in exact rational arithmetic.

    Entries of ``m`` are binary floats, hence exact rationals; the traces
    returned are the mathematically exact power traces of the (exactly
    symmetrized) stored matrix, computed on scaled integers.  Needed where
    float64 accumulation would bury the signal carried by the high-order
    traces of a tightly clustered spectrum.
    """
    p, e = _scaled_integer_parts(require_hermitian(m))
    return _scaled_power_traces(p, e, n_max)


def exact_product_power_traces(a, b, n_max: int) -> list[Fraction]:
    """Re Tr((ab)^n) for n = 1..n_max, exactly, for Hermitian a and b.

    Both factors are exactly symmetrized first, which makes every trace of
    a power of ab an exactly real rational (trace equals its transpose's).
    This is the noise-free limit of the moment ladder: the product of the
    state with its spin flip is not Hermitian, but its power traces are.
    """
    pa, ea = _scaled_integer_parts(require_hermitian(a))
    pb, eb = _scaled_integer_parts(require_hermitian(b))
    return _scaled_power_traces(_int_matmul(pa, pb), ea + eb, n_max)
