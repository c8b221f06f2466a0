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
A run builds all its streams from one mix of its seed.

Every sampled entry point rejects shot counts that are not whole numbers in
[1, 2**63) before any draw; one helper draws every binary run from the
observable's exact +-1 mean, and only :func:`success_probability` forms p+.
A ladder run reads its four means off one product chain; tomography takes
its 15 Pauli expectations from one batched product and trace.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .inversion import _power_table
from .measures import ConcurrenceBreakdown, concurrence_breakdown
from .protocols import (
    MomentVector,
    exact_moment_fractions,
    SpectrumEstimate,
    concurrence_from_moments,
    spectrum_from_channel_moments,
    spectrum_protocol,
)
from .spa import (GroupChannelOutput, apply_spa_pt, group_channel_output, group_channel_outputs,
                  moment_observable_spec)
from .states import DensityMatrix, _rng_streams

MODES = ("ideal", "sampled")


class ShotRecord(NamedTuple):
    """Outcome counts of one binary estimation run."""

    shots: int
    successes: int
    target_mean: float  # the exact Bernoulli parameter sampled from

    @property
    def estimate(self) -> float:
        return self.successes / self.shots


class MomentSample(NamedTuple):
    """One sampled moment: counts, derived estimate, copy accounting."""

    k: int
    record: ShotRecord
    moment_estimate: float
    copies_consumed: int  # protocol copies: shots * 2k


def _shot_count(shots) -> int:
    if not 1 <= shots < 2**63 or shots != int(shots):
        raise ValueError(f"shots must be a whole number of at least 1 and below 2**63, got {shots!r}")
    return int(shots)


def success_probability(mean: float) -> float:
    """p+ = (1 + mean) / 2 of a binary observable with +-1 mean ``mean``,
    clamped into [0, 1] against float dust."""
    return min(max((1.0 + mean) / 2.0, 0.0), 1.0)


def _binary_run(mean: float, shots: int, rng: np.random.Generator) -> tuple[ShotRecord, float]:
    """One binomial run of ``shots`` (already checked) outcomes of the
    observable with exact +-1 mean ``mean``: its record and the sampled mean."""
    p_plus = success_probability(mean)
    successes = int(rng.binomial(shots, p_plus))
    record = ShotRecord(shots=shots, successes=successes, target_mean=p_plus)
    return record, 2.0 * record.estimate - 1.0


def moment_success_probability(state: DensityMatrix, k: int) -> float:
    """Exact p+ for group k via the implicit channel output."""
    return success_probability(group_channel_output(state, k).shift_trace())


def moment_standard_error(k: int, p_plus: float, shots: int) -> float:
    """Propagated shot-noise std of the moment estimate.

    The count fraction has std sqrt(p+ (1-p+) / N); the chain to the moment
    multiplies by 2 (the +-1 relabeling) and by the shrink amplification
    d_k^3 + 1.  The amplification makes high k impractical: at k = 4 one
    binary-outcome shot noise unit costs 2 * 16777217 moment units.
    """
    spec = moment_observable_spec(k)
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"p_plus must be a probability in [0, 1], got {p_plus!r}")
    return 2.0 * spec.amplification * math.sqrt(p_plus * (1.0 - p_plus) / _shot_count(shots))


def _moment_sample(output: GroupChannelOutput, shots: int, rng: np.random.Generator) -> MomentSample:
    spec = moment_observable_spec(output.k)
    record, shift_hat = _binary_run(output.shift_trace(), shots, rng)
    return MomentSample(k=output.k, record=record, moment_estimate=spec.moment(shift_hat),
                        copies_consumed=shots * spec.copies)


def sample_moment_povm(state: DensityMatrix, k: int, shots: int, rng: np.random.Generator) -> MomentSample:
    """Draw one binomial run for group k and push it through the estimate chain."""
    return _moment_sample(group_channel_output(state, k), _shot_count(shots), rng)


class EstimatorRun(NamedTuple):
    """One run of the concurrence pipeline."""

    samples: tuple[MomentSample, ...] | None  # None in ideal mode
    moments: MomentVector
    breakdown: ConcurrenceBreakdown
    flags: tuple[str, ...]

    @property
    def copies_consumed(self) -> int:
        if self.samples is None:
            return 0
        return sum(s.copies_consumed for s in self.samples)


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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "ideal":
        # noise-free limit: the expectation values themselves, held exactly
        # (float64 storage of the k = 3, 4 means already costs ~1e-9)
        fractions = exact_moment_fractions(state)
        moments = MomentVector(p=tuple(float(x) for x in fractions))
        samples = None
        breakdown, flags = concurrence_from_moments(fractions)
    else:
        shots = _shot_count(shots)
        outputs = group_channel_outputs(state)
        rngs = _rng_streams(seed, [out.k for out in outputs])
        samples = tuple(_moment_sample(out, shots, rng) for out, rng in zip(outputs, rngs))
        moments = MomentVector(p=tuple(s.moment_estimate for s in samples))
        breakdown, flags = concurrence_from_moments(moments.p)
    return EstimatorRun(
        samples=samples,
        moments=moments,
        breakdown=breakdown,
        flags=flags + moments.flags,
    )


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
    p+(n) = (1 + Tr(sigma^n))/2 computed from the channel output spectrum;
    the trace itself is known, not measured.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "ideal":
        return SpectrumRun(samples=None, estimate=spectrum_protocol(state))
    shots = _shot_count(shots)
    sigma = apply_spa_pt(state)
    # every channel power sum Tr(sigma^n) from one table, row n = lam**n
    traces = _power_table(np.linalg.eigvalsh(sigma.matrix), sigma.dim).sum(axis=1).tolist()
    orders = range(2, sigma.dim + 1)
    runs = [_binary_run(traces[n], shots, rng)
            for n, rng in zip(orders, _rng_streams(seed, orders))]
    estimate = spectrum_from_channel_moments([1.0] + [psum for _, psum in runs], state.dims[0])
    return SpectrumRun(samples=tuple(record for record, _ in runs), estimate=estimate)


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
    takes the exact expectations, draws nothing and ignores ``shots``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if state.dims != (2, 2):
        raise ValueError("the tomography baseline is two-qubit only")
    values = np.trace(state.matrix @ _PAULI_OPS, axis1=1, axis2=2).real.tolist()
    if mode == "ideal":
        shots = 0
    else:
        shots = _shot_count(shots)
        values = [_binary_run(v, shots, rng)[1]
                  for v, rng in zip(values, _rng_streams(seed, range(len(values))))]
    # I + v_1 P_1 + ... + v_15 P_15, summed left to right along axis 0
    terms = np.concatenate((np.eye(4, dtype=complex)[None], np.array(values)[:, None, None] * _PAULI_OPS))
    rebuilt = np.add.reduce(terms, axis=0) / 4.0
    w, v = np.linalg.eigh((rebuilt + rebuilt.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    w /= np.sum(w)
    rho_hat = DensityMatrix._valid((v * w) @ v.conj().T, (2, 2))
    return TomographyRun(expectations=dict(zip(_PAULI_LABELS, values)), shots=shots,
                         rho_hat=rho_hat, breakdown=concurrence_breakdown(rho_hat))
