"""Finite-shot simulation of the binary-observable estimation runs.

The interferometric readout behind each collective observable is a
two-outcome measurement whose success probability encodes one parameter:

    p+ = (1 + Re Tr(V rho_k)) / 2.

Gate-level simulation of the multi-copy circuits would add cost without
coverage, so sampling happens at the statistics level: the exact Bernoulli
parameter is computed through the implicit channel representation and the
outcome counts are drawn from the corresponding binomial.  Everything is
reproducible from (state, config, seed); independent estimates use
independent seed streams, stream k being ``states.rng_stream(seed, k)``.
A run builds all its streams from one mix of its seed and draws quantity i
on stream ``first + i``, first >= 1: stream 0 builds the CLI's random states.

Every sampled entry point rejects shot counts that are not integers in
[1, 2**63) before any draw; every binary run is drawn from the
observable's exact +-1 mean, and only :func:`success_probability` forms p+.
A state keeps what its runs read: the ladder's four means (one product
chain), the spectrum run's channel power sums and tomography's 15 Pauli
expectations (one batched product and trace).  The three runs draw all their
means through one helper, one stream each; ladder and spectrum runs keep
their draws as plain ShotRecords, in moment order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import MODES, _real, _whole
from .linalg import Moments
from .measures import ConcurrenceBreakdown, _require_two_qubit, concurrence_breakdown
from .protocols import (
    exact_moment_fractions,
    SpectrumEstimate,
    concurrence_from_moments,
    spectrum_from_channel_moments,
    spectrum_protocol,
)
from .spa import _LADDER_SPECS, _channel_moments, _ladder_means, _require_equal_dims, moment_observable_spec
from .states import DensityMatrix, _rng_streams

#: largest shot count: numpy's binomial draws from an int64 count
_MAX_SHOTS = 2**63 - 1


class ShotRecord(NamedTuple):
    """Outcome counts of one binary estimation run."""

    shots: int
    successes: int
    target_mean: float  # the exact Bernoulli parameter sampled from

    @property
    def estimate(self) -> float:
        return self.successes / self.shots


def _is_ideal(mode: str) -> bool:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode == "ideal"


def success_probability(mean: float) -> float:
    """p+ = (1 + mean) / 2 of a binary observable with +-1 mean ``mean``,
    clamped into [0, 1] against float dust."""
    return min(max((1.0 + mean) / 2.0, 0.0), 1.0)


def _binary_run(mean: float, shots: int, rng: np.random.Generator) -> tuple[ShotRecord, float]:
    """One binomial run of ``shots`` (already checked) outcomes of the
    observable with exact +-1 mean ``mean``: its record and the sampled mean."""
    p_plus = success_probability(mean)
    successes = int(rng.binomial(shots, p_plus))
    record = ShotRecord(shots, successes, p_plus)
    return record, 2.0 * record.estimate - 1.0


def _draw(means, first: int, shots: int, seed) -> tuple[tuple[ShotRecord, ...], list[float]]:
    """One binary run of ``shots`` (already checked) outcomes per exact +-1 mean, mean i
    on stream ``first + i`` of ``seed``: the records and the sampled means, in the
    order given, built in one pass over the means."""
    records, sampled = [], []
    for mean, rng in zip(means, _rng_streams(seed, range(first, first + len(means)))):
        record, x = _binary_run(mean, shots, rng)
        records.append(record)
        sampled.append(x)
    return tuple(records), sampled


def moment_success_probability(state: DensityMatrix, k: int) -> float:
    """Exact p+ for group k, its mean read off the ladder's one chain once k is checked."""
    k = moment_observable_spec(k).k
    return success_probability(_ladder_means(state)[k - 1])


def moment_standard_error(k: int, p_plus: float, shots: int) -> float:
    """Propagated shot-noise std of the moment estimate.

    The count fraction has std sqrt(p+ (1-p+) / N); the chain to the moment
    multiplies by 2 (the +-1 relabeling) and by the shrink amplification
    d_k^3 + 1.  The amplification makes high k impractical: at k = 4 one
    binary-outcome shot noise unit costs 2 * 16777217 moment units.
    """
    spec = moment_observable_spec(k)
    _real(p_plus, "p_plus", 0, 1)
    shots = _whole(shots, "shots", 1, _MAX_SHOTS)
    return 2.0 * spec.amplification * math.sqrt(p_plus * (1.0 - p_plus) / shots)


def sample_moment_povm(state: DensityMatrix, k: int, shots: int,
                       rng: np.random.Generator) -> tuple[ShotRecord, float]:
    """Draw one binomial run for group k: its record and the moment estimate p_k it yields."""
    spec = moment_observable_spec(k)
    shots = _whole(shots, "shots", 1, _MAX_SHOTS)
    record, shift_hat = _binary_run(_ladder_means(state)[spec.k - 1], shots, rng)
    return record, spec.moment(shift_hat)


class EstimatorRun(NamedTuple):
    """One run of the concurrence pipeline; ``samples[k - 1]`` is group k's record."""

    samples: tuple[ShotRecord, ...] | None  # None in ideal mode
    moments: tuple[float, float, float, float]
    breakdown: ConcurrenceBreakdown
    flags: tuple[str, ...]

    @property
    def copies_consumed(self) -> int:
        return sum(spec.copies * r.shots for spec, r in zip(_LADDER_SPECS, self.samples or ()))


def run_concurrence_protocol(
    state: DensityMatrix,
    shots: int = 10**6,
    seed: int = 0,
    mode: str = "sampled",
) -> EstimatorRun:
    """Estimate C and E_f from the four group observables.

    ideal mode plugs the exact success probabilities into the chain (shot
    noise off); sampled mode draws each moment from its binomial with an
    independent stream derived from the master seed by stream id = k.
    Every moment gets the same ``shots``, which ideal mode ignores.  The
    four p+ come from one product chain.
    """
    _require_two_qubit(state, "the concurrence protocol")
    if _is_ideal(mode):
        # noise-free limit: the expectation values themselves, held exactly
        # (float64 storage of the k = 3, 4 means already costs ~1e-9)
        samples, moments = None, exact_moment_fractions(state)
    else:
        shots = _whole(shots, "shots", 1, _MAX_SHOTS)
        samples, shift_hats = _draw(_ladder_means(state), 1, shots, seed)
        moments = Moments.of([spec.moment(x) for spec, x in zip(_LADDER_SPECS, shift_hats)])
    breakdown, flags = concurrence_from_moments(moments)
    return EstimatorRun(samples, tuple(moments.floats()), breakdown, flags)


class SpectrumRun(NamedTuple):
    """One run of the negativity pipeline."""

    samples: tuple[ShotRecord, ...] | None
    estimate: SpectrumEstimate

    @property
    def flags(self) -> tuple[str, ...]:
        return self.estimate.flags


def run_spectrum_protocol(
    state: DensityMatrix,
    shots: int = 10**6,
    seed: int = 0,
    mode: str = "sampled",
) -> SpectrumRun:
    """Estimate the PT spectrum and E_c of a d (x) d state.

    Orders n = 2..D are estimated from binary runs with exact parameters
    p+(n) = (1 + Tr(sigma^n))/2 read off the state's kept channel power sums;
    the trace itself is known, not measured.
    """
    _require_equal_dims(state, "the negativity protocol")
    if _is_ideal(mode):
        return SpectrumRun(samples=None, estimate=spectrum_protocol(state))
    shots = _whole(shots, "shots", 1, _MAX_SHOTS)
    samples, psums = _draw(state._derived(_channel_moments)[1][2:], 2, shots, seed)
    return SpectrumRun(samples, spectrum_from_channel_moments([1.0, *psums]))


# ------------------------------------------------------------- tomography

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

#: the 15 non-identity two-qubit Pauli products, II excluded, built once
_PAULI_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:]
_PAULI_OPS = np.array([np.kron(_PAULI[a], _PAULI[b]) for a, b in _PAULI_LABELS])
_PAULI_OPS.setflags(write=False)


class TomographyRun(NamedTuple):
    """Linear-inversion reconstruction from 15 Pauli-pair expectations."""

    expectations: dict
    shots: int  # outcomes drawn per observable, 0 in ideal mode
    rho_hat: DensityMatrix
    breakdown: ConcurrenceBreakdown

    @property
    def copies_consumed(self) -> int:
        return 15 * self.shots


def _pauli_expectations(state: DensityMatrix) -> tuple[float, ...]:
    """The 15 exact Pauli-pair expectations Tr(rho P_i), in ``_PAULI_LABELS`` order."""
    rho = _require_two_qubit(state, "the tomography baseline")
    return tuple((rho @ _PAULI_OPS).trace(axis1=1, axis2=2).real.tolist())


def run_tomography_baseline(
    state: DensityMatrix,
    shots: int = 10**4,
    seed: int = 0,
    mode: str = "sampled",
) -> TomographyRun:
    """Reconstruction baseline the collective protocols are compared against.

    Each Pauli pair has outcomes +-1; N outcomes are drawn per observable
    (one independent stream each), the state is rebuilt by linear inversion
    with the identity term fixed, then projected onto the PSD trace-one
    cone by clamping negative eigenvalues and renormalizing.  ideal mode
    takes the exact expectations, draws nothing and ignores ``shots``.  The
    exact expectations are derived once per state.
    """
    values = state._derived(_pauli_expectations)
    shots = 0 if _is_ideal(mode) else _whole(shots, "shots", 1, _MAX_SHOTS)
    if shots:
        values = _draw(values, 1, shots, seed)[1]
    # I + v_1 P_1 + ... + v_15 P_15, summed left to right along axis 0
    terms = np.concatenate((np.eye(4, dtype=complex)[None], np.array(values)[:, None, None] * _PAULI_OPS))
    rebuilt = np.add.reduce(terms, axis=0) / 4.0
    w, v = np.linalg.eigh((rebuilt + rebuilt.conj().T) / 2.0)
    w = w.clip(0.0)
    w /= w.sum()
    rho_hat = DensityMatrix._valid((v * w) @ v.conj().T, (2, 2))
    return TomographyRun(expectations=dict(zip(_PAULI_LABELS, values)), shots=shots,
                         rho_hat=rho_hat, breakdown=concurrence_breakdown(rho_hat))
