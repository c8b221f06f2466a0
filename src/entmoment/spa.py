"""Structural physical approximation of the partial transpose.

Mixing enough white noise into a positive-but-not-completely-positive map
yields a legitimate quantum channel.  For the partial transpose on a
d (x) d system the critical mixing weight has the closed form 1/(d^3 + 1),
the only weight the channel uses; the Choi-positivity bisection here is
the reference that the closed form is checked against.

The channel output spectrum is an affine image of the partial-transpose
spectrum, so measuring the output spectrum measures the PT spectrum.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import _local_dims, _whole
from .linalg import partial_transpose
from .measures import _require_two_qubit, spin_flip
from .states import DensityMatrix

#: min Choi eigenvalue tolerated as "still positive semidefinite"
CHOI_PSD_TOL = 1e-10

#: width of the bracket at which the Choi bisection stops
CHOI_BISECT_TOL = 1e-8


def spa_shrink(d: int) -> float:
    """Signal attenuation 1/(d^3 + 1) of the partial-transpose SPA."""
    return 1.0 / (_whole(d, "d", 1) ** 3 + 1.0)


def affine_map(pt_eigenvalue: float, d: int) -> float:
    """Channel-output eigenvalue produced by a PT eigenvalue."""
    d = _whole(d, "d", 1)
    return d / (d**3 + 1.0) + pt_eigenvalue / (d**3 + 1.0)


def inverse_affine(channel_eigenvalue: float, d: int) -> float:
    """Exact inverse of :func:`affine_map`; elementwise on an array."""
    d = _whole(d, "d", 1)
    return (d**3 + 1.0) * channel_eigenvalue - d


def _require_equal_dims(state: DensityMatrix, operation: str) -> int:
    """The local dimension d of a d (x) d state; ValueError naming ``operation`` otherwise."""
    if state.dims[0] != state.dims[1]:
        raise ValueError(f"{operation} needs equal local dimensions, got state dims {state.dims}")
    return state.dims[0]


@functools.lru_cache(maxsize=8)  # local dimensions kept
def _white_noise(d: int) -> tuple[np.ndarray, float]:
    """The SPA's white-noise term [d/(d^3+1)] I = (1 - s) I / d^2, read-only, and its weight s on rho^T_B."""
    dim, s = d * d, spa_shrink(d)
    noise = (1.0 - s) * np.eye(dim) / dim
    noise.setflags(write=False)
    return noise, s


def apply_spa_pt(state: DensityMatrix) -> DensityMatrix:
    """Approximate partial transpose as a channel on a d (x) d state; unequal dims are refused.

    Output = [d/(d^3+1)] I + [1/(d^3+1)] rho^T_B, whose spectrum is the affine
    image of the PT spectrum: valid by construction, so not re-checked.  The
    noise term and the weight depend on d alone and are built once per d.  The
    closed-form weight is checked against the reference :func:`spa_threshold_by_choi`.
    """
    noise, s = _white_noise(_require_equal_dims(state, "the closed-form SPA"))
    pt = partial_transpose(state.matrix, state.dims)
    return DensityMatrix._valid(noise + s * pt, state.dims)


def spa_threshold_by_choi(dims: tuple[int, int]) -> float:
    """Largest weight of the partial transpose on B that keeps the mixture a channel.

    Bisects the mixing weight p of  (1-p) * white-noise + p * rho^T_B  until
    the Choi matrix stops being PSD (min eigenvalue >= -CHOI_PSD_TOL), to
    precision CHOI_BISECT_TOL.  On d (x) d the result is 1/(d^3 + 1); where
    the partial transpose is completely positive (dimB = 1) it is 1.
    """
    da, db = _local_dims(dims)
    dim = da * db
    # the map on one half of the unnormalized maximally entangled projector,
    # sum_ij |i><j| (x) |i><j|^T_B: the partial transpose on its last factor
    omega = np.eye(dim).ravel()
    choi_target = partial_transpose(np.outer(omega, omega), (dim * da, db))
    choi_noise = np.eye(dim * dim, dtype=complex) / dim

    def psd_at(p: float) -> bool:
        choi = (1.0 - p) * choi_noise + p * choi_target
        return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0]) >= -CHOI_PSD_TOL

    if psd_at(1.0):
        return 1.0
    lo, hi = 0.0, 1.0  # psd_at(lo) holds: pure white noise is a channel
    while hi - lo > CHOI_BISECT_TOL:
        mid = (lo + hi) / 2.0
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ladder_power_sums(state: DensityMatrix) -> tuple[float, float, float, float]:
    """p_k = Re Tr((rho rho~)^k), k = 1..4, along one chain P_k = (P_{k-1} rho) rho~.

    The left-to-right product of the 2k factors rho, rho~, ..., which the
    shift-operator identity equates with Tr(V_(2k) (rho (x) rho~)^(x k)).
    """
    rho, rho_tilde = _require_two_qubit(state, "the moment ladder"), spin_flip(state)
    prod = rho @ rho_tilde
    sums = [float(prod.trace().real)]
    for _ in range(3):
        prod = prod @ rho @ rho_tilde
        sums.append(float(prod.trace().real))
    return tuple(sums)


class MomentObservableSpec(NamedTuple):
    """Scale and offset turning the binary-observable mean into p_k.

    The offset applied is 4 * d_k, the unique constant for which the group
    observable's mean reproduces the power sum exactly (the identity block
    of the channel output contributes Tr V = 4 per shift trace).  The d_k^3
    variant that appears in some derivations misses the identity by
    d_k^3 - 4 d_k and is carried along for reporting only.
    """

    k: int
    copies: int
    amplification: int
    offset: int
    d_cubed_offset: int

    def moment(self, mean: float) -> float:
        """p_k = (d_k^3 + 1) * mean - 4 d_k from the observable's +-1 mean."""
        return self.amplification * mean - self.offset

    def mean(self, p_k: float) -> float:
        """The observable's +-1 mean (4 d_k + p_k) / (d_k^3 + 1): the inverse of :meth:`moment`."""
        return (self.offset + p_k) / self.amplification


#: the four group read-outs in ladder order, k = 1..4, built once (d_k = 4^k);
#: amplification d_k^3 + 1 scales shot noise into p_k
_LADDER_SPECS = tuple(MomentObservableSpec(k, copies=2 * k, amplification=4 ** (3 * k) + 1, offset=4 * 4**k,
                                           d_cubed_offset=4 ** (3 * k)) for k in (1, 2, 3, 4))


def moment_observable_spec(k: int) -> MomentObservableSpec:
    return _LADDER_SPECS[_whole(k, "group index", 1, 4) - 1]


def _ladder_means(state: DensityMatrix) -> list[float]:
    """The exact +-1 means of the four group observables, k = 1..4, off one
    :func:`ladder_power_sums` chain: what each group's shift trace reads.
    Derived once per state; each call hands out a new list."""
    return list(state._derived(_ladder_mean_tuple))


def _ladder_mean_tuple(state: DensityMatrix) -> tuple[float, ...]:
    return tuple([spec.mean(p_k) for spec, p_k in zip(_LADDER_SPECS, ladder_power_sums(state))])


class GroupChannelOutput(NamedTuple):
    """Implicit value object for the k-th group channel output.

    The 2k-copy channel output equals

        [d_k/(d_k^3+1)] I + [1/(d_k^3+1)] (rho (x) rho~)^(x k),  d_k = 4^k,

    a matrix of dimension 16^k that is never materialized here (k = 4 would
    need ~68 GiB).  Every quantity the estimation pipeline consumes reduces
    through the shift-operator identity to p_k, the trace of a product of
    the two 4 x 4 matrices rho and rho~ read off :func:`ladder_power_sums`.
    """

    k: int
    p_k: float

    def shift_trace(self) -> float:
        """Re Tr(V_(2k) rho_k) without touching the 16^k space.

        The identity block contributes Tr(V) = 4 (constant basis strings of
        one four-level factor), the signal block contributes p_k.
        """
        return moment_observable_spec(self.k).mean(self.p_k)


def group_channel_outputs(state: DensityMatrix) -> tuple[GroupChannelOutput, ...]:
    """The four group channel outputs of a two-qubit state, k = 1..4."""
    return tuple(GroupChannelOutput(k, p) for k, p in enumerate(ladder_power_sums(state), 1))


def group_channel_output(state: DensityMatrix, k: int) -> GroupChannelOutput:
    """Group k's channel output; k is checked before the chain runs."""
    k = moment_observable_spec(k).k
    return GroupChannelOutput(k, ladder_power_sums(state)[k - 1])
