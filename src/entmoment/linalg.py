"""Dense complex linear algebra for small multi-copy operator spaces.

Everything here works on plain ``numpy`` arrays of complex128.  The cyclic
shift operator defines the trace identity

    Tr(V_(n) A_1 (x) ... (x) A_n) = Tr(A_1 A_2 ... A_n)

that lets multi-copy expectation values collapse to products of the small
single-copy matrices (``spa.ladder_power_sums`` forms them), so nothing of
dimension ``local_dim**n`` is built outside tests and the selftest.

The exact power traces of ideal mode scale each factor's real part and its
imaginary part, diagonal set to 0, to integers and take their residues
modulo word-size primes, where R + R^T and I - I^T form the real embedding
[[R, -I], [I, R]] of the exactly symmetrized matrix.  The powers are batched
float64 products over all primes at once, exact because the prime width,
chosen from the dimension, keeps every partial sum below 2**53.  The traces
come back by CRT in the symmetric range, and one spare prime checks each of
them, so a wrong ``Fraction`` raises instead of being returned.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _local_dims, _whole

#: max absolute deviation from m == m.conj().T accepted as "Hermitian"
HERMITICITY_TOL = 1e-9

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
    return float(np.abs(m - m.conj().T).max())


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


def partial_transpose(m, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the indices of the second tensor factor (B) only.

    Parameters
    ----------
    m : array_like
        Square matrix on a dimA*dimB space, A the slow index.
    dims : (dimA, dimB), two integers of at least 1

    The operation is a pure index permutation: on exact (binary rational)
    inputs it is bit-exact, trace preserving, Hermiticity preserving and an
    involution.  The partial transpose on A is the full transpose of this
    one.
    """
    a = as_complex_matrix(m)
    da, db = _local_dims(dims)
    if da * db != a.shape[0]:
        raise ValueError(f"dims {dims} do not match matrix dimension {a.shape[0]}")
    return a.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


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


def _psd_sqrt(a: np.ndarray) -> np.ndarray:  # a state's matrix: checked at construction or PSD by it
    w, v = np.linalg.eigh(a)
    w = w.clip(0.0)  # a state's zero eigenvalues can come back just below 0
    return (v * np.sqrt(w)) @ v.conj().T


def cyclic_shift_matrix(n: int, local_dim: int) -> np.ndarray:
    """Explicit cyclic shift operator V_(n) on n factors of size local_dim.

    Basis action: |j1 j2 ... jn> -> |j2 ... jn j1>.  This direction is the
    one for which Tr(V (x)_i A_i) equals the left-to-right product trace
    Tr(A_1 ... A_n); the opposite rotation yields the reversed product.
    """
    n, local_dim = _whole(n, "n", 1), _whole(local_dim, "local_dim", 1)
    dim = local_dim**n
    if dim > SHIFT_DIM_CAP:
        raise ValueError(f"shift operator dimension {dim} exceeds cap {SHIFT_DIM_CAP}")
    block = local_dim ** (n - 1)
    src = np.arange(dim)
    dest = (src % block) * local_dim + src // block
    v = np.zeros((dim, dim), dtype=complex)
    v[dest, src] = 1.0
    return v


def _reduce(x: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """x mod p within p/2 + 4 of zero, exactly, for integer floats x with
    |x| + p/2 + 4 <= 2**53.

    The quotient x * p_inv is off x / p by less than 4 / p, so its nearest
    integer q can miss round(x / p) only at a near tie, and x - q * p is a
    difference of integers no larger than 2**53: exact.
    """
    q = x * p_inv
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def _prime_width(dim: int) -> int:
    """Bit width w of the primes used on dim x dim matrices.

    Residues stay within h = 2**(w-1) + 4 of zero.  A trace sums 2 * dim**2
    products of at most h**2 each, a power step 2 * dim of them: with every
    partial sum below 2**53, float64 forms both exactly in any order.
    """
    w = 26
    while 2 * dim * dim * (2 ** (w - 1) + 4) ** 2 + 2**w > 2**53:
        w -= 1
    return w


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n below 3.2e9 (bases 2, 3, 5, 7)."""
    if n in (3, 5, 7):
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: CRT weights are kept for prefixes of up to this many primes (a d = 6
#: spectrum needs about 140); a longer prefix's weights, k**2 words, are
#: rebuilt on each use instead of being held
_CRT_KEPT = 256


class _Residues:
    """What the residue route needs on dim x dim matrices, built on demand.

    The primes, odd and just below 2**width, largest first, come with their
    columns, 2**s mod p for every shift s asked for so far, and the CRT
    weights of each prefix.  All of it is a function of dim, so one instance
    per dim serves every call.
    """

    def __init__(self, dim: int):
        self.width = _prime_width(dim)
        self.primes: list[int] = []
        self.product, self.bits = 1, [1]  # bits[k]: bit length of the product of the first k primes
        self.pow2 = np.zeros((0, 0))
        self.crts: dict[int, tuple[int, list[int], int]] = {}

    def _grow(self) -> None:
        n = self.primes[-1] - 2 if self.primes else 2**self.width - 1
        while not _is_prime(n):
            n -= 2
        self.primes.append(n)
        self.product *= n
        self.bits.append(self.product.bit_length())

    def count(self, bits: int) -> int:
        """Fewest primes whose product is at least 2**bits."""
        while self.bits[-1] <= bits:
            self._grow()
        return bisect.bisect_right(self.bits, bits)

    def columns(self, k: int, shifts: int):
        """(p as int64, p, 1/p, 2**s mod p for s < shifts) over the first k
        primes, the first three shaped (k, 1, 1)."""
        rows, cols = self.pow2.shape
        if rows < k or cols < shifts:
            while len(self.primes) < k:
                self._grow()
            self._build(max(k, rows), max(shifts, cols))
        return self.p_int[:k], self.p[:k], self.p_inv[:k], self.pow2[:k]

    def _build(self, rows: int, cols: int) -> None:
        self.p_int = np.array(self.primes[:rows], dtype=np.int64)[:, None, None]
        self.p = self.p_int.astype(float)
        self.p_inv = 1.0 / self.p
        p, p_inv = self.p[:, 0], self.p_inv[:, 0]
        pow2 = _reduce(np.ldexp(1.0, np.arange(32)), p, p_inv)
        while pow2.shape[1] < cols:  # 2**(c + s) = 2**c * 2**s, products below 2**51
            step = _reduce(2.0 * pow2[:, -1:], p, p_inv)
            pow2 = np.concatenate([pow2, _reduce(pow2 * step, p, p_inv)], axis=1)
        self.pow2 = pow2[:, :cols].copy()

    def crt(self, k: int) -> tuple[int, list[int], int]:
        """(M, w, q): the product M of the first k primes, weights w_j that
        are 1 mod the j-th prime and 0 mod the others, and the next prime q."""
        if k in self.crts:
            return self.crts[k]
        primes = self.primes[:k]
        modulus = math.prod(primes)
        crt = modulus, [modulus // p * pow(modulus // p, -1, p) for p in primes], self.primes[k]
        if k <= _CRT_KEPT:
            self.crts[k] = crt
        return crt


@functools.cache
def _residues(dim: int) -> _Residues:
    return _Residues(dim)


class _Scaled(NamedTuple):
    """Factors m_f as integer matrices M_f = 2 * sym(m_f) * 2**-(e_f + 1),
    given by their parts.

    Before symmetrizing, each entry of the real part (part 0) and of the
    imaginary part with its diagonal set to 0 (part 1) is mant * 2**shift.
    """

    mant: np.ndarray  # (factors, 2, D, D) int64, below 2**53 in magnitude
    shift: np.ndarray  # (factors, 2, D, D) nonnegative ints, below ``shifts``
    shifts: int
    e: list[int]
    log2_norm: list[float]  # ||M_f||_F < 2**log2_norm[f]


#: [1, -1] over a part axis: r + sign * r^T is R + R^T and I - I^T, and the
#: transposed blocks [R^T, -I^T] become [R^T, I^T], so that Re Tr(XY) =
#: sum(R_X * R_Y^T) - sum(I_X * I_Y^T) is one dot with [R_X, -I_X]
_SIGN = np.array([1.0, -1.0])[:, None, None]


def _decompose(mats) -> _Scaled:
    """Integer parts of the exactly symmetrized factors, from one frexp.

    The imaginary diagonal is set to 0 first: symmetrizing cancels it, so its
    roundoff changes neither e nor the norm bound.  With |x| < 2**E for the
    at most 2D**2 - D nonzero entries, ||M||_F < 2 * sqrt(2D**2 - D) *
    2**(max E - min E + 53): the bound comes from the exponents, so no float
    norm can overflow.
    """
    factors, dim = len(mats), mats[0].shape[0]
    x = np.array([(m.real, m.imag) for m in mats])
    x[:, 1].reshape(factors, -1)[:, :: dim + 1] = 0.0  # the imaginary diagonals, through a view
    frac, expo = np.frexp(x)
    low = expo.reshape(factors, -1).min(axis=1)  # zeros enter with exponent 0: they can only lower it
    shift = expo - low[:, None, None, None]
    low, top = low.tolist(), [math.frexp(t)[1] for t in np.abs(x).reshape(factors, -1).max(axis=1).tolist()]
    half_log2_count = math.log2(2 * dim * dim - dim) / 2
    shifts = max(max(t, 0) - lo for t, lo in zip(top, low)) + 1  # a zero's exponent is 0
    return _Scaled(np.ldexp(frac, 53).astype(np.int64), shift, shifts,
                   [lo - 54 for lo in low], [t - lo + 54 + half_log2_count for t, lo in zip(top, low)])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b, axis=1) as one batched matmul (BLAS dot per row)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _exact_traces(mats, n_max: int) -> list[Fraction]:
    """Re Tr((m_1 ... m_f)^n), n = 1..n_max, of the one or two exactly
    symmetrized factors m_f = M_f * 2**e_f, as exact Fractions.

    The integer traces Re Tr(X^n), X = M_1 ... M_f, are taken modulo k
    word-size primes, with k from |Re Tr(X^n)| <= sqrt(D) * ||X||_F**n, and
    rebuilt by CRT in the symmetric range; one more prime checks every
    reconstruction.  Tr(X^n) = sum(X^a * (X^b)^T) with a + b = n, so only
    the powers up to ceil(n_max / 2) are formed.
    """
    mats = [require_hermitian(m) for m in mats]
    if mats[-1].shape != mats[0].shape:
        raise ValueError(f"factor shapes {mats[0].shape} and {mats[-1].shape} differ")
    if _whole(n_max, "n_max", 0) == 0:
        return []
    factors, dim = len(mats), mats[0].shape[0]
    res = _residues(dim)
    scaled = _decompose(mats)
    log2_norm, half_log2_dim = sum(scaled.log2_norm), math.log2(dim) / 2
    # 2 |Tr| < 2**bits; the 1e-9 keeps float rounding from lowering the bound
    bits = [math.ceil(n * log2_norm + half_log2_dim + 1e-9) + 1 for n in range(1, n_max + 1)]
    counts = [res.count(b) for b in bits]
    k = counts[-1] + 1
    p_int, p, p_inv, pow2 = res.columns(k, scaled.shifts)
    r = np.fmod(scaled.mant, p_int[..., None, None]) * pow2[:, scaled.shift]  # (k, f, 2, D, D)
    sym = _reduce(r + _SIGN * r.swapaxes(-1, -2), p[..., None, None], p_inv[..., None, None])
    embedded = np.empty((k, factors, 2 * dim, 2 * dim))  # M = A + A^H as [[R, -I], [I, R]]
    embedded[..., :dim, :dim] = embedded[..., dim:, dim:] = sym[:, :, 0]
    embedded[..., dim:, :dim] = sym[:, :, 1]
    np.negative(sym[:, :, 1], out=embedded[..., :dim, dim:])
    step = embedded[:, 0] if factors == 1 else _reduce(embedded[:, 0] @ embedded[:, 1], p, p_inv)
    x = step[:, :dim]  # X as the first D rows of its embedding, [R, -I]
    half, traces = (n_max + 1) // 2, []
    for j in range(1, half + 1):  # traces 2j - 1 and 2j from X^j
        if j > 1:
            x = _reduce(x @ step, p, p_inv)
        w = z = x.reshape(k, -1)
        if j == 1:
            traces.append(w[:, : 2 * dim * dim : 2 * dim + 1].sum(axis=1))  # the diagonal of R
        if factors == 2 and (j < half or 2 * j <= n_max):
            # [R^T, I^T] of X^j; a power of a Hermitian X needs no transpose,
            # as [R, -I] = [R^T, I^T] there
            z = np.multiply(x.reshape(k, dim, 2, dim).swapaxes(1, 3), _SIGN[..., 0], order="C").reshape(k, -1)
        if j > 1:
            traces.append(_row_dots(w, z_prev))
        if 2 * j <= n_max:
            traces.append(_row_dots(w, z))
        z_prev = z
    e, out = sum(scaled.e), []
    for n, row, kn in zip(range(1, n_max + 1), np.array(traces, dtype=np.int64).tolist(), counts):
        modulus, weights, check = res.crt(kn)
        t = sum(map(operator.mul, row, weights)) % modulus
        if t > modulus >> 1:
            t -= modulus
        if (t - row[kn]) % check:
            raise ArithmeticError(f"power trace {n} failed its check prime")
        out.append(Fraction(t << n * e, 1) if e >= 0 else Fraction(t, 1 << -n * e))
    return out


def exact_power_traces(m, n_max: int) -> list[Fraction]:
    """Tr(m^n) for n = 1..n_max in exact rational arithmetic.

    Entries of ``m`` are binary floats, hence exact rationals; the traces
    returned are the mathematically exact power traces of the (exactly
    symmetrized) stored matrix.  Needed where float64 accumulation would
    bury the signal carried by the high-order traces of a tightly clustered
    spectrum.
    """
    return _exact_traces([m], n_max)


def exact_product_power_traces(a, b, n_max: int) -> list[Fraction]:
    """Re Tr((ab)^n) for n = 1..n_max, exactly, for Hermitian a and b.

    Both factors are exactly symmetrized first, which makes every trace of
    a power of ab an exactly real rational (trace equals its transpose's).
    This is the noise-free limit of the moment ladder: the product of the
    state with its spin flip is not Hermitian, but its power traces are.
    """
    return _exact_traces([a, b], n_max)
