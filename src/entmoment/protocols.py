"""Estimation pipelines built on collective measurements of state copies.

Three pipelines, all reconstruction-free:

- the four-moment ladder: groups of 2, 4, 6, 8 copies pass through the
  group channels, one binary observable per group yields the power sums of
  the rho rho~ spectrum, and Newton inversion returns the concurrence;
- the spectrum pipeline: the SPA channel output's power sums determine the
  partial-transpose spectrum through the inverse affine map, hence the
  negativity measures, for any d (x) d input;
- the two-stage scenario: a sign test on the SPA output spectrum
  gates the quantitative gamma-matrix stage.

The resource ledgers live in :mod:`entmoment.ledger` and are re-exported here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .inversion import SpectrumRecovery, spectrum_from_power_sums
from .ledger import QUOTED_TOMOGRAPHY_R, ResourceLedger, resource_ledger  # noqa: F401  (re-exported)
from .linalg import Moments, exact_power_traces, exact_product_power_traces
from .measures import (
    ConcurrenceBreakdown,
    GammaReport,
    NegativityReport,
    _require_two_qubit,
    breakdown_from_lambdas,
    gamma_concurrence_report,
    report_from_pt_eigenvalues,
    verdict_from_min_pt_eigenvalue,
)
from .spa import _channel_moments, _spa_output, inverse_affine
from .states import DensityMatrix

#: negative inverted eigenvalues beyond this magnitude are flagged, not silent
NEGATIVE_ROOT_GUARD = 1e-10

NEGATIVE_ROOTS_FLAG = "negative-roots-clamped"
MOMENT_ORDER_FLAG = "moment-order-violated"

SECOND_STAGE_ABANDONED = "no entanglement detected, second stage abandoned"


def exact_moment_fractions(state: DensityMatrix) -> Moments:
    """The four moments as exact rationals (the shot-noise-free limit): an
    exact :class:`Moments` record, integers over one power-of-two grade.
    The benchmark traces this name, so its rename waits for a benchmark
    change (ROADMAP item 6).

    Float64 cannot hold the k = 3, 4 expectation values well enough: the
    protocol arithmetic scales a unit-range observable mean by d_k^3 + 1,
    so a mere representation rounding of the mean costs ~eps * 1.7e7 on
    the fourth moment, which the concurrence's square-root sensitivity
    then turns into errors above 1e-6 whenever an eigenvalue is small.
    """
    return exact_product_power_traces(_require_two_qubit(state, "the moment ladder"), 4)


def _clamped_inversion(psums) -> SpectrumRecovery:
    """Inverted values clamped at zero, flagged beyond NEGATIVE_ROOT_GUARD."""
    rec = spectrum_from_power_sums(psums)
    flags = rec.flags
    if float(rec.values.min()) < -NEGATIVE_ROOT_GUARD:
        flags += (NEGATIVE_ROOTS_FLAG,)
    return SpectrumRecovery(rec.values.clip(0.0), flags)


def newton_invert(moments) -> SpectrumRecovery:
    """Eigenvalue estimates from a 4-sequence of power sums, sorted descending.

    Complex root residuals are projected out with a flag; negative values
    are clamped to zero, flagged when beyond NEGATIVE_ROOT_GUARD.  Noisy
    input never raises; it is flagged.  A non-positive second central moment
    comes back as the mean, flagged ``infeasible-moments`` when negative.
    An exact record (see :meth:`Moments.of`) is inverted exactly.
    """
    if len(moments) != 4:
        raise ValueError("expected four moments")
    return _clamped_inversion(moments)


def concurrence_from_moments(moments) -> tuple[ConcurrenceBreakdown, tuple[str, ...]]:
    """Moments -> eigenvalues -> concurrence and entanglement of formation.

    The flags are the inversion's, then MOMENT_ORDER_FLAG unless
    p_1 >= p_2 >= p_3 >= p_4 >= 0 holds to 1e-12 on the moments as floats.
    """
    moments = Moments.of(moments)
    rec = newton_invert(moments)
    p = moments.floats()
    ordered = all(a >= b - 1e-12 for a, b in zip(p, p[1:])) and p[-1] >= -1e-12
    return breakdown_from_lambdas(rec.values), rec.flags + (() if ordered else (MOMENT_ORDER_FLAG,))


class SpectrumEstimate(NamedTuple):
    """Negativity data reconstructed from channel-output power sums."""

    report: NegativityReport
    channel_eigenvalues: tuple[float, ...]
    flags: tuple[str, ...]


def spectrum_power_sums(state: DensityMatrix) -> Moments:
    """Power sums Tr(sigma^n), n = 1..D, of the SPA channel output.

    The traces are computed in exact rational arithmetic and returned as an
    exact :class:`Moments` record.  The channel compresses the whole PT
    spectrum into a window of width ~1/(d^3+1) around d/(d^3+1); for d = 3
    the configuration signal in the high-order sums then sits below the
    float64 rounding floor of the low-order ones, so exactness is what makes
    the ideal-mode inversion well posed.  Sampled estimation replaces these
    values with binomial means anyway.  The benchmark traces this name, so
    a rename waits for a benchmark change (ROADMAP item 6).
    """
    return exact_power_traces(_spa_output(state).matrix, state.dim)


def spectrum_from_channel_moments(psums) -> SpectrumEstimate:
    """Invert the d * d channel-output power sums (d read off their count) into a PT spectrum estimate.

    The first power sum is the trace, known rather than measured, and the
    caller passes it: 1.0 with measured moments, the exact trace of the
    stored matrix with exact ones (that trace differs from 1 by
    representation rounding, and pinning it would inject an inconsistency
    the exact inversion is sharp enough to resolve).  ValueError unless the
    count is a positive square.
    """
    d = math.isqrt(len(psums))
    if d == 0 or d * d != len(psums):
        raise ValueError(f"expected d * d power sums for some d >= 1, got {len(psums)}")
    rec = _clamped_inversion(psums)
    return SpectrumEstimate(
        report=report_from_pt_eigenvalues(inverse_affine(rec.values, d)),
        channel_eigenvalues=tuple(rec.values.tolist()),
        flags=rec.flags,
    )


def spectrum_protocol(state: DensityMatrix) -> SpectrumEstimate:
    """Negativity measures of a d (x) d state from channel moments alone; the SPA refuses unequal dims."""
    return spectrum_from_channel_moments(spectrum_power_sums(state))


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

    Stage one is a sign test: is the smallest channel-output eigenvalue below
    the fixed threshold d/(d^3+1), i.e. does the PT spectrum dip negative?
    Its shot cost, compared with estimation, is not measured here.  On a PPT
    verdict the quantitative stage is skipped entirely.
    """
    _require_two_qubit(state, "the two-stage scenario")
    min_channel = state._derived(_channel_moments)[0]
    verdict = verdict_from_min_pt_eigenvalue(inverse_affine(min_channel, 2))
    return TwoStageResult(
        verdict=verdict.verdict,
        min_channel_eigenvalue=min_channel,
        min_pt_eigenvalue_estimate=verdict.min_pt_eigenvalue,
        message=None if verdict.entangled else SECOND_STAGE_ABANDONED,
        stage_two=gamma_concurrence_report(state) if verdict.entangled else None,
    )
