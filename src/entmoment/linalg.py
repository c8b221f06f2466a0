"""Dense complex linear algebra for small multi-copy operator spaces.

Everything here works on plain ``numpy`` arrays of complex128.  The cyclic
shift operator defines the trace identity

    Tr(V_(n) A_1 (x) ... (x) A_n) = Tr(A_1 A_2 ... A_n)

that lets multi-copy expectation values collapse to products of the small
single-copy matrices (``spa.ladder_power_sums`` forms them), so nothing of
dimension ``local_dim**n`` is built outside tests and the selftest.

The exact power traces of ideal mode scale a matrix's real part R and its
imaginary part I, diagonal set to 0, to integers and take their residues
modulo word-size primes p = 1 (mod 4), where r**2 = -1 has a root: the
exactly symmetrized R + R^T + i (I - I^T) becomes the D x D residue
X = (R + rI) + (R - rI)^T, reduced once; the ladder's spin flip takes its
residues from X.  The powers are batched float64 products over all primes
at once, exact because the prime width, chosen from the dimension, keeps
every partial sum below 2**53.  The traces come back by CRT in the
symmetric range, and one spare prime checks each of them, so a wrong trace
raises instead of being returned.  They come back as an exact :class:`Moments`
record, the CRT's integers over one power-of-two grade; a ``Fraction`` is
built only where a caller asks for one.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _local_dims, _real, _whole

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


#: y_i y_j: Sigma = sigma_y (x) sigma_y is the antidiagonal Sigma_(i, 3-i) = y_i, y = (-1, 1, 1, -1)
_FLIP = np.outer(*2 * [[-1.0, 1.0, 1.0, -1.0]])


def sigma_yy_conjugate(x: np.ndarray) -> np.ndarray:
    """Sigma x Sigma, Sigma = sigma_y (x) sigma_y, for a 4 x 4 matrix or a
    stack of them: the signed reversal (Sigma x Sigma)_ij = y_i y_j x_(3-i, 3-j)."""
    return _FLIP * x[..., ::-1, ::-1]


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

    Residues stay within h = 2**(w-1) + 4 of zero, and _reduce needs
    |x| + h <= 2**53.  A trace sums dim**2 products of at most h**2, a power
    step dim of them; a residue is built as four products of at most
    (p - 1) h, p < 2**w, which caps w at 25.
    """
    w = 25
    while dim * dim * (2 ** (w - 1) + 4) ** 2 + 2 ** (w - 1) + 4 > 2**53:
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

    The primes, all 1 mod 4 and just below 2**width, largest first, come
    with a root r of r**2 = -1 mod p, 2**s and r * 2**s mod p for every
    shift s asked for so far, and the CRT weights of each prefix.  All of it
    is a function of dim, so one instance per dim serves every call.
    """

    def __init__(self, dim: int):
        self.width = _prime_width(dim)
        self.primes: list[int] = []
        self.roots: list[int] = []
        self.product, self.bits = 1, [1]  # bits[k]: bit length of the product of the first k primes
        self.pow2 = np.zeros((0, 2, 0))
        self.crts: dict[int, tuple[int, list[int], int]] = {}

    def _grow(self) -> None:
        n = self.primes[-1] - 4 if self.primes else 2**self.width - 3
        while not _is_prime(n):
            n -= 4
        g = 2
        while pow(g, n >> 1, n) != n - 1:  # Euler's criterion: g**((n-1)/2) = -1 for a non-residue g
            g += 1
        self.primes.append(n)
        self.roots.append(min(r := pow(g, n >> 2, n), n - r))
        self.product *= n
        self.bits.append(self.product.bit_length())

    def count(self, bits: int) -> int:
        """Fewest primes whose product is at least 2**bits."""
        while self.bits[-1] <= bits:
            self._grow()
        return bisect.bisect_right(self.bits, bits)

    def columns(self, k: int, shifts: int):
        """(p as int64, p, 1/p, t) over the first k primes, the first three
        shaped (k, 1, 1); t[:, 0, s] = 2**s, t[:, 1, s] = r * 2**s mod p."""
        rows, _, cols = self.pow2.shape
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
        while pow2.shape[1] < cols:  # 2**(c + s) = 2**c * 2**s, products below 2**49
            step = _reduce(2.0 * pow2[:, -1:], p, p_inv)
            pow2 = np.concatenate([pow2, _reduce(pow2 * step, p, p_inv)], axis=1)
        pow2, root = pow2[:, :cols], np.array(self.roots[:rows], dtype=float)[:, None]
        self.pow2 = np.stack([pow2, _reduce(root * pow2, p, p_inv)], axis=1)  # r * 2**s below 2**49

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
    """m as the integer matrix M = 2 * sym(m) * 2**-(e + 1), by its parts:
    before symmetrizing, each entry of the real part (part 0) and of the
    imaginary part with its diagonal set to 0 (part 1) is mant * 2**shift."""

    mant: np.ndarray  # (2, D, D) int64, below 2**53 in magnitude
    shift: np.ndarray  # (2, D, D) nonnegative ints, below ``shifts``
    shifts: int
    e: int
    log2_norm: float  # ||M||_F < 2**log2_norm


def _decompose(m: np.ndarray) -> _Scaled:
    """Integer parts of the exactly symmetrized matrix, from one frexp.

    The imaginary diagonal is set to 0 first: symmetrizing cancels it, so its
    roundoff changes neither e nor the norm bound.  With |x| < 2**E for the
    at most 2D**2 - D nonzero entries, ||M||_F < 2 * sqrt(2D**2 - D) *
    2**(max E - min E + 53): the bound comes from the exponents, so no float
    norm can overflow.
    """
    dim = m.shape[0]
    x = np.array((m.real, m.imag))
    np.fill_diagonal(x[1], 0.0)
    frac, expo = np.frexp(x)
    low = int(expo.min())  # zeros enter with exponent 0: they can only lower it
    top = math.frexp(float(np.abs(x).max()))[1]
    return _Scaled(np.ldexp(frac, 53).astype(np.int64), expo - low, max(top, 0) - low + 1,  # a zero's exponent is 0
                   low - 54, top - low + 54 + math.log2(2 * dim * dim - dim) / 2)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b, axis=1) as one batched matmul (BLAS dot per row)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class Moments(Sequence):
    """Moments p_m, m = 1..len, held as integers P_m over one integer grade
    G: p_m = P_m / G**m.  ``exact`` says whether the p_m are known exactly,
    as exact traces or ``Fraction``s are, or are floats owed a rounding floor.

    Indexing and iteration give each p_m as a ``Fraction``, built on request,
    a slice a list of them; :meth:`floats` gives each as one correctly
    rounded int / int, the float of that ``Fraction``, without building it.
    """

    __slots__ = ("ints", "grade", "exact")

    def __init__(self, ints: list[int], grade: int, exact: bool):
        self.ints, self.grade, self.exact = ints, grade, exact

    @classmethod
    def of(cls, moments) -> Moments:
        """``moments`` as a record: a record unchanged; else real numbers, exact
        only if every one is a ``Fraction``.  Any other entry follows the
        real-number rule, its index named, and is taken as its float (an int
        too large for one raises ``ValueError``).  With denominators
        b_m = odd_m << twos_m, G = odd << g, odd the lcm of the odd_m and g
        the least with g m >= twos_m.  A list of finite plain floats, as a
        sampled run hands over, has odd = 1 and is graded on that shortcut;
        one with a non-finite entry is refused on the general route.
        """
        if isinstance(moments, Moments):
            return moments
        items = list(moments)
        if items and all(type(x) is float for x in items) and all(map(math.isfinite, items)):
            ratios = [x.as_integer_ratio() for x in items]
            twos = [b.bit_length() - 1 for _, b in ratios]
            g = max([-(-t // m) for m, t in enumerate(twos, 1)])
            return cls([a << (g * m - t) for m, ((a, _), t) in enumerate(zip(ratios, twos), 1)], 1 << g, False)
        exact = [type(x) is not float and isinstance(x, Fraction) for x in items]  # a float skips the ABC check
        for i, (x, known) in enumerate(zip(items, exact)):
            if not known:  # a Fraction is exact, so real and finite
                _real(x, f"power sum at index {i}")
        try:
            ratios = [(x if known else float(x)).as_integer_ratio() for x, known in zip(items, exact)]
        except OverflowError as exc:
            raise ValueError(f"power sums overflow float64: {exc}") from exc
        twos = [(b & -b).bit_length() - 1 for _, b in ratios]
        odds = [b >> t for (_, b), t in zip(ratios, twos)]
        odd, g = math.lcm(*odds), max([-(-t // m) for m, t in enumerate(twos, 1)], default=0)
        ints = [(a * (odd**m // o)) << (g * m - t) for m, ((a, _), o, t) in enumerate(zip(ratios, odds, twos), 1)]
        return cls(ints, odd << g, all(exact))

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[m] for m in range(len(self.ints))[i]]
        m = range(1, len(self.ints) + 1)[i]
        return Fraction(self.ints[m - 1], self.grade**m)

    def floats(self) -> list[float]:
        return [t / self.grade**m for m, t in enumerate(self.ints, 1)]


def _exact_traces(m, n_max: int, flip: bool) -> Moments:
    """Tr(X^n), n = 1..n_max, exactly, for X the exactly symmetrized m, or
    with ``flip`` its product with its spin flip.

    i -> r, r**2 = -1 mod p, maps the Gaussian integers onto the residues
    modulo a prime p = 1 (mod 4): the integer M = (R + R^T) + i (I - I^T)
    of m = M * 2**e becomes the D x D residue X = (R + rI) + (R - rI)^T,
    gathered from the table's 2**s and r * 2**s and reduced once.  The
    traces, integers as the factors are Hermitian, are taken modulo k
    primes, with k from |Tr(X^n)| <= sqrt(D) * ||X||_F**n, and rebuilt by
    CRT in the symmetric range; one more prime checks every one of them.
    m = M * 2**e with e <= 0, since the scaling keeps 54 bits below the
    smallest entry, so the traces come back as integers over the grade 2**-e.
    Tr(X^n) = Tr(X^a X^b), a = ceil(n / 2), b = floor(n / 2): only powers
    up to ceil(n_max / 2) are formed.
    """
    m = require_hermitian(m)
    if flip and m.shape != (4, 4):
        raise ValueError(f"the spin flip needs a 4 x 4 matrix, got shape {m.shape}")
    if _whole(n_max, "n_max", 0) == 0:
        return Moments([], 1, True)
    dim, factors = m.shape[0], 1 + flip
    res, scaled = _residues(dim), _decompose(m)
    # the spin flip permutes m's entries up to sign: the same e and norm bound
    log2_norm, half_log2_dim = factors * scaled.log2_norm, math.log2(dim) / 2
    # 2 |Tr| < 2**bits; the 1e-9 keeps float rounding from lowering the bound
    bits = [math.ceil(n * log2_norm + half_log2_dim + 1e-9) + 1 for n in range(1, n_max + 1)]
    counts = [res.count(b) for b in bits]
    k = counts[-1] + 1
    p_int, p, p_inv, pow2 = res.columns(k, scaled.shifts)
    re, im = (np.fmod(scaled.mant[j], p_int) * pow2[:, j, scaled.shift[j]] for j in (0, 1))  # R, rI
    step = _reduce(re + im + (re - im).swapaxes(1, 2), p, p_inv)
    if flip:  # M* = M^T maps to X^T, m~ = Sigma m* Sigma to Sigma X^T Sigma
        step = _reduce(step @ sigma_yy_conjugate(step.swapaxes(1, 2)), p, p_inv)
    # (X^b)^T is an explicit transpose: a residue of a Hermitian X is not symmetric
    x, traces = step, [step.diagonal(axis1=1, axis2=2).sum(axis=1)]
    for n in range(2, n_max + 1):
        if n % 2:
            x = _reduce(x @ step, p, p_inv)  # X^a, one power up
        else:
            z = x.swapaxes(1, 2).reshape(k, -1)  # (X^b)^T, b = a
        traces.append(_row_dots(x.reshape(k, -1), z))
    ints = []
    for n, row, kn in zip(range(1, n_max + 1), np.array(traces, dtype=np.int64).tolist(), counts):
        modulus, weights, check = res.crt(kn)
        t = sum(map(operator.mul, row, weights)) % modulus
        if t > modulus >> 1:
            t -= modulus
        if (t - row[kn]) % check:
            raise ArithmeticError(f"power trace {n} failed its check prime")
        ints.append(t)
    return Moments(ints, 1 << -factors * scaled.e, True)


def exact_power_traces(m, n_max: int) -> Moments:
    """Tr(m^n) for n = 1..n_max in exact rational arithmetic, as
    an exact :class:`Moments` record.

    Entries of ``m`` are binary floats, hence exact rationals; the traces
    returned are the mathematically exact power traces of the (exactly
    symmetrized) stored matrix.  Needed where float64 accumulation would
    bury the signal carried by the high-order traces of a tightly clustered
    spectrum.
    """
    return _exact_traces(m, n_max, flip=False)


def exact_product_power_traces(m, n_max: int) -> Moments:
    """Tr((m m~)^n) for n = 1..n_max, exactly, as a :class:`Moments` record, for
    a Hermitian 4 x 4 m and its spin flip m~ = Sigma m* Sigma, Sigma =
    sigma_y (x) sigma_y.

    m is exactly symmetrized first, and m~ with it, so every trace is an
    exactly real rational although m m~ is not Hermitian.  With m = rho
    this is the noise-free limit of the moment ladder; with m = rho^T_B the
    traces are those of the gamma matrix Sigma rho^T_A Sigma rho^T_B.
    """
    return _exact_traces(m, n_max, flip=True)
