"""Estimation pipelines built on collective measurements of state copies.

Three pipelines, all reconstruction-free:

- the four-moment ladder: groups of 2, 4, 6, 8 copies pass through the
  group channels, one binary observable per group yields the power sums of
  the rho rho~ spectrum, and Newton inversion returns the concurrence;
- the spectrum pipeline: the SPA channel output's power sums determine the
  partial-transpose spectrum through the inverse affine map, hence the
  negativity measures, for any d (x) d input;
- the two-stage scenario: a cheap sign test on the SPA output spectrum
  gates the quantitative gamma-matrix stage.

Resource ledgers count estimated parameters and consumed copies per round.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .inversion import SpectrumRecovery, spectrum_from_power_sums
from .linalg import exact_power_traces, exact_product_power_traces
from .measures import (
    ConcurrenceBreakdown,
    GammaReport,
    NegativityReport,
    NPT_TOL,
    breakdown_from_lambdas,
    gamma_concurrence_report,
    report_from_pt_eigenvalues,
    spin_flip,
)
from .spa import (GroupChannelOutput, apply_spa_pt, group_channel_outputs, inverse_affine, ladder_power_sums,
                  moment_observable_spec)
from .states import DensityMatrix

#: negative inverted eigenvalues beyond this magnitude are flagged, not silent
NEGATIVE_ROOT_GUARD = 1e-10

NEGATIVE_ROOTS_FLAG = "negative-roots-clamped"
MOMENT_ORDER_FLAG = "moment-order-violated"

SECOND_STAGE_ABANDONED = "no entanglement detected, second stage abandoned"

#: round-count figure commonly quoted for full two-qubit state reconstruction;
#: the naive product of the ledger entries is 15 * 15 = 225, both are reported
QUOTED_TOMOGRAPHY_R = 165


class MomentVector(NamedTuple):
    """Power sums p_k of the rho rho~ spectrum for k = 1..4."""

    p: tuple[float, float, float, float]

    @property
    def flags(self) -> tuple[str, ...]:
        """MOMENT_ORDER_FLAG unless p_1 >= p_2 >= p_3 >= p_4 >= 0 (to 1e-12)."""
        p = self.p
        ordered = all(p[i] >= p[i + 1] - 1e-12 for i in range(len(p) - 1))
        return () if ordered and p[-1] >= -1e-12 else (MOMENT_ORDER_FLAG,)


def exact_moments(state: DensityMatrix) -> MomentVector:
    """p_k = Tr((rho rho~)^k) for k = 1..4 via the cyclic product trace."""
    return MomentVector(p=ladder_power_sums(state))


def exact_moment_fractions(state: DensityMatrix) -> list[Fraction]:
    """The four moments as exact rationals (the shot-noise-free limit).

    Float64 cannot hold the k = 3, 4 expectation values well enough: the
    protocol arithmetic scales a unit-range observable mean by d_k^3 + 1,
    so a mere representation rounding of the mean costs ~eps * 1.7e7 on
    the fourth moment, which the concurrence's square-root sensitivity
    then turns into errors above 1e-6 whenever an eigenvalue is small.
    """
    return exact_product_power_traces(state.matrix, spin_flip(state), 4)


def moment_from_channel(output: GroupChannelOutput) -> float:
    """Moment p_k read off the group channel output.

    (d_k^3 + 1) * Re Tr(V rho_k) - 4 d_k; the shift trace is the single
    parameter a binary measurement estimates.
    """
    return moment_observable_spec(output.k).moment(output.shift_trace())


def channel_moments(state: DensityMatrix) -> MomentVector:
    """All four moments through the (implicit) group channel route."""
    return MomentVector(p=tuple(moment_from_channel(out) for out in group_channel_outputs(state)))


class InversionResult(NamedTuple):
    lambdas: tuple[float, float, float, float]
    flags: tuple[str, ...]


def _clamped_inversion(psums) -> SpectrumRecovery:
    """Inverted values clamped at zero, flagged beyond NEGATIVE_ROOT_GUARD."""
    rec = spectrum_from_power_sums(psums)
    flags = rec.flags
    if float(rec.values.min()) < -NEGATIVE_ROOT_GUARD:
        flags += (NEGATIVE_ROOTS_FLAG,)
    return SpectrumRecovery(np.clip(rec.values, 0.0, None), flags)


def newton_invert(moments) -> InversionResult:
    """Eigenvalue estimates from a 4-sequence of power sums, sorted descending.

    The flags are the inversion's; a caller holding a MomentVector passes
    its ``.p`` and appends its order flag after them.  Complex root residuals are projected out with a flag; negative values
    are clamped to zero, flagged when beyond NEGATIVE_ROOT_GUARD.  Noisy
    input yields a flagged estimate, never an exception.  Fraction inputs
    are inverted exactly.
    """
    if len(moments) != 4:
        raise ValueError("expected four moments")
    rec = _clamped_inversion(moments)
    return InversionResult(tuple(float(x) for x in rec.values), rec.flags)


def concurrence_from_moments(moments) -> tuple[ConcurrenceBreakdown, tuple[str, ...]]:
    """Moments -> eigenvalues -> concurrence and entanglement of formation."""
    inv = newton_invert(moments)
    return breakdown_from_lambdas(inv.lambdas), inv.flags


class SpectrumEstimate(NamedTuple):
    """Negativity data reconstructed from channel-output power sums."""

    report: NegativityReport
    channel_eigenvalues: tuple[float, ...]
    flags: tuple[str, ...]


def spectrum_power_sums(state: DensityMatrix) -> list[Fraction]:
    """Power sums Tr(sigma^n), n = 1..D, of the SPA channel output.

    The traces are computed in exact rational arithmetic.  The channel
    compresses the whole PT spectrum into a window of width ~1/(d^3+1)
    around d/(d^3+1); for d = 3 the configuration signal in the high-order
    sums then sits below the float64 rounding floor of the low-order ones,
    so exactness is what makes the ideal-mode inversion well posed.  Sampled
    estimation replaces these values with binomial means anyway.
    """
    sigma = apply_spa_pt(state)
    return exact_power_traces(sigma.matrix, sigma.dim)


def spectrum_from_channel_moments(psums, d: int) -> SpectrumEstimate:
    """Invert channel-output power sums into a PT spectrum estimate.

    The first power sum is the trace, known rather than measured, and the
    caller passes it: 1.0 with measured moments, the exact trace of the
    stored matrix with exact ones (that trace differs from 1 by
    representation rounding, and pinning it would inject an inconsistency
    the exact inversion is sharp enough to resolve).
    """
    rec = _clamped_inversion(psums)
    pt = np.array([inverse_affine(x, d) for x in rec.values])
    return SpectrumEstimate(
        report=report_from_pt_eigenvalues(pt),
        channel_eigenvalues=tuple(float(x) for x in rec.values),
        flags=rec.flags,
    )


def spectrum_protocol(state: DensityMatrix) -> SpectrumEstimate:
    """Negativity measures of a d (x) d state from channel moments alone;
    :func:`apply_spa_pt` rejects unequal local dimensions."""
    return spectrum_from_channel_moments(spectrum_power_sums(state), state.dims[0])


class TwoStageResult(NamedTuple):
    """Sign-test verdict plus, only when warranted, the gamma estimate."""

    verdict: str  # "npt" | "ppt"
    min_channel_eigenvalue: float
    min_pt_eigenvalue_estimate: float
    message: str | None
    stage_two: GammaReport | None

    @property
    def entangled(self) -> bool:
        return self.verdict == "npt"


def two_stage_protocol(state: DensityMatrix) -> TwoStageResult:
    """PPT sign test on the channel output, then the gamma stage if needed.

    Stage one only asks whether the smallest channel-output eigenvalue sits
    below the fixed threshold d/(d^3+1), i.e. whether the PT spectrum dips
    negative; a yes-no answer needing far less precision than estimation.
    On a PPT verdict the quantitative stage is skipped entirely.
    """
    if state.dims != (2, 2):
        raise ValueError("the two-stage scenario is defined for two-qubit states")
    sigma = apply_spa_pt(state)
    min_channel = float(np.linalg.eigvalsh(sigma.matrix)[0])
    min_pt = inverse_affine(min_channel, 2)
    if min_pt >= -NPT_TOL:
        return TwoStageResult(
            verdict="ppt",
            min_channel_eigenvalue=min_channel,
            min_pt_eigenvalue_estimate=min_pt,
            message=SECOND_STAGE_ABANDONED,
            stage_two=None,
        )
    return TwoStageResult(
        verdict="npt",
        min_channel_eigenvalue=min_channel,
        min_pt_eigenvalue_estimate=min_pt,
        message=None,
        stage_two=gamma_concurrence_report(state),
    )


class ResourceLedger(NamedTuple):
    """(parameters estimated, copies per round, product) for one protocol."""

    protocol: str
    r_p: int
    r_c: int

    @property
    def r(self) -> int:
        return self.r_p * self.r_c


def resource_ledger(protocol: str, d: int = 2) -> ResourceLedger:
    """Accounting for the moment ladder, the spectrum pipeline on d (x) d,
    and the full-reconstruction baseline."""
    if protocol == "concurrence-moments":
        return ResourceLedger(protocol, r_p=4, r_c=2 + 4 + 6 + 8)
    if protocol not in ("spectrum", "tomography"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"local dimension must be an integer of at least 2, got {d!r}")
    if protocol == "spectrum":
        return ResourceLedger(protocol, r_p=d**2 - 1, r_c=(d**4 + d**2 - 2) // 2)
    return ResourceLedger(protocol, r_p=d**4 - 1, r_c=d**4 - 1)
