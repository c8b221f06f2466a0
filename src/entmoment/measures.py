"""Exact entanglement measures used as ground truth by the protocols.

Two-qubit concurrence and entanglement of formation, negativity and the
log-negativity style computable measure for any bipartite split, the PPT
verdict, and the gamma-matrix shortcut that turns the smallest eigenvalue of

    gamma = Sigma rho^T_A Sigma rho^T_B,   Sigma = sigma_y (x) sigma_y

into a concurrence estimate for states already known to be entangled.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _real
from .linalg import _psd_sqrt, general_eigenvalues, herm_eigenvalues, partial_transpose, sigma_yy_conjugate
from .states import DensityMatrix

#: a partial-transpose eigenvalue below -NPT_TOL counts as negative
NPT_TOL = 1e-9

#: imaginary part tolerated on the smallest gamma eigenvalue
GAMMA_IMAG_GUARD = 1e-6


def _require_two_qubit(state: DensityMatrix, operation: str) -> np.ndarray:
    if state.dims != (2, 2):
        raise ValueError(f"{operation} needs a two-qubit state, got state dims {state.dims}")
    return state.matrix


def _refused_eigenvalues(eigenvalues) -> ValueError:
    """The one refusal of an eigenvalue list that is empty or has a non-finite or non-real entry."""
    return ValueError(f"eigenvalues must be finite and real, one or more, got {eigenvalues!r}")


def _real_eigenvalues(eigenvalues) -> np.ndarray:
    """``eigenvalues`` as a new 1-D float array; :func:`_refused_eigenvalues` unless a non-empty list
    of ints and floats, Python's or numpy's (no complex, bool or object entries).  Finiteness is left
    to the caller, which reads it where it is cheapest."""
    lam = np.asarray(eigenvalues)
    if lam.ndim != 1 or lam.size == 0 or lam.dtype.kind not in "fiu":
        raise _refused_eigenvalues(eigenvalues)
    return lam.astype(float)


def spin_flip(state: DensityMatrix) -> np.ndarray:
    """Spin-flipped two-qubit state Sigma rho* Sigma (same spectrum as rho)."""
    return sigma_yy_conjugate(_require_two_qubit(state, "the spin flip").conj())


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    _real(x, "the binary entropy argument", 0, 1)
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def ef_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of two-qubit concurrence, clamped into [0, 1]."""
    c = min(max(_real(c, "the concurrence"), 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


class ConcurrenceBreakdown(NamedTuple):
    """The four descending eigenvalues of rho rho~ plus C and E_f."""

    lambdas: tuple[float, float, float, float]
    concurrence: float
    ef: float


def breakdown_from_lambdas(lambdas) -> ConcurrenceBreakdown:
    """Assemble C and E_f from (possibly estimated) eigenvalues of rho rho~;
    ValueError unless there are four of them, all finite and real."""
    lam = np.asarray(lambdas)
    if lam.shape != (4,):
        raise ValueError("expected four eigenvalues")
    lam = _real_eigenvalues(lam).tolist()
    if not all(map(math.isfinite, lam)):
        raise _refused_eigenvalues(lambdas)
    # in plain floats: negatives and -0.0 clip to +0.0
    lam = sorted((x if x > 0.0 else 0.0 for x in lam), reverse=True)
    # rounding dust must not leak through the square roots: an eigenvalue of
    # 1e-17 would otherwise shift C by 3e-9
    cut = 1e-13 * lam[0]
    lam = tuple(0.0 if x < cut else x for x in lam)
    r0, r1, r2, r3 = map(math.sqrt, lam)
    c = min(max(0.0, r0 - r1 - r2 - r3), 1.0)
    return ConcurrenceBreakdown(lam, c, ef_from_concurrence(c))


def concurrence_breakdown(state: DensityMatrix) -> ConcurrenceBreakdown:
    """Exact two-qubit concurrence data.

    The eigenvalues of rho rho~ are obtained from the Hermitian PSD matrix
    sqrt(rho) rho~ sqrt(rho), which shares its spectrum with rho rho~ but
    guarantees real nonnegative output by construction.  rho, a state's
    matrix, is a valid density matrix already and is not re-checked.
    """
    s = _psd_sqrt(_require_two_qubit(state, "the concurrence"))
    return breakdown_from_lambdas(herm_eigenvalues(s @ spin_flip(state) @ s))


def concurrence(state: DensityMatrix) -> float:
    return concurrence_breakdown(state).concurrence


class NegativityReport(NamedTuple):
    """Partial-transpose spectrum, descending, and the measures derived from it."""

    pt_eigenvalues: tuple[float, ...]
    trace_norm_pt: float
    negativity: float
    ec: float

    @property
    def verdict(self) -> PptVerdict:
        """Sign test on the smallest partial-transpose eigenvalue."""
        return verdict_from_min_pt_eigenvalue(self.pt_eigenvalues[-1])


def report_from_pt_eigenvalues(eigenvalues) -> NegativityReport:
    """The report of a partial-transpose spectrum; ValueError unless a non-empty list of finite reals."""
    lam = _real_eigenvalues(eigenvalues)  # a copy: sorted in place
    lam.sort()
    lam = lam[::-1]
    tn = float(abs(lam).sum())
    if not math.isfinite(tn):  # a NaN or an infinity anywhere shows in the sum
        raise _refused_eigenvalues(eigenvalues)
    return NegativityReport(
        pt_eigenvalues=tuple(lam.tolist()),
        trace_norm_pt=tn,
        negativity=max(0.0, (tn - 1.0) / 2.0),
        ec=max(0.0, math.log2(tn)),
    )


def negativity_report(state: DensityMatrix) -> NegativityReport:
    """Eigenvalues of rho^T_B, their absolute sum, negativity and E_c."""
    pt = partial_transpose(state.matrix, state.dims)
    return report_from_pt_eigenvalues(herm_eigenvalues(pt))


class PptVerdict(NamedTuple):
    verdict: str  # "npt" (entangled for 2x2 and 2x3) or "ppt"
    min_pt_eigenvalue: float

    @property
    def entangled(self) -> bool:
        return self.verdict == "npt"


def verdict_from_min_pt_eigenvalue(min_pt_eigenvalue: float) -> PptVerdict:
    """The PPT sign test: "npt" below -NPT_TOL, else "ppt" (NaN shows no negative eigenvalue, so "ppt")."""
    return PptVerdict("npt" if min_pt_eigenvalue < -NPT_TOL else "ppt", min_pt_eigenvalue)


def ppt_verdict(state: DensityMatrix) -> PptVerdict:
    """Sign test on the partial-transpose spectrum."""
    return negativity_report(state).verdict


class GammaReport(NamedTuple):
    """Smallest gamma = Sigma rho^T_A Sigma rho^T_B eigenvalue and the C estimate."""

    lambda_min: float
    imag_residual: float
    concurrence_estimate: float
    flags: tuple[str, ...]


def gamma_matrix(state: DensityMatrix) -> np.ndarray:
    tb = partial_transpose(_require_two_qubit(state, "the gamma matrix"), (2, 2))
    return sigma_yy_conjugate(tb.T) @ tb  # rho^T_A = (rho^T_B)^T


def gamma_concurrence_report(state: DensityMatrix) -> GammaReport:
    """Concurrence estimate from the smallest-real-part gamma eigenvalue.

    gamma is a product of Hermitian matrices and need not be Hermitian, so
    the spectrum is taken with a general eigensolver and the eigenvalue of
    smallest real part is used; an imaginary residual above GAMMA_IMAG_GUARD
    is flagged.  The relation min eig = C^2/4 holds for entangled states (a
    500-state calibration sweep finds the ratio 1 to ~1e-10; the tests pin
    it); on separable input the estimate is not meaningful and the caller
    is expected to have established entanglement first.
    """
    spec = general_eigenvalues(gamma_matrix(state))
    idx = int(spec.real.argmin())
    lam_min = spec[idx]
    flags: list[str] = []
    if abs(lam_min.imag) > GAMMA_IMAG_GUARD:
        flags.append("gamma-imaginary-residual")
    c_hat = math.sqrt(max(0.0, 4.0 * float(lam_min.real)))
    return GammaReport(
        lambda_min=float(lam_min.real),
        imag_residual=float(abs(lam_min.imag)),
        concurrence_estimate=min(c_hat, 1.0),
        flags=tuple(flags),
    )
