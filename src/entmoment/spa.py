"""Structural physical approximation of the partial transpose.

Mixing enough white noise into a positive-but-not-completely-positive map
yields a legitimate quantum channel.  For the partial transpose on a
d (x) d system the critical mixing weight has the closed form 1/(d^3 + 1),
which the Choi-positivity bisection here reproduces and which doubles as
the normative definition whenever no closed form is known (d != d').

The channel output spectrum is an affine image of the partial-transpose
spectrum, so measuring the output spectrum measures the PT spectrum.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .linalg import partial_transpose
from .measures import spin_flip
from .states import DensityMatrix

#: min Choi eigenvalue tolerated as "still positive semidefinite"
CHOI_PSD_TOL = 1e-10

#: width of the bracket at which the Choi bisection stops
CHOI_BISECT_TOL = 1e-8


def spa_shrink(d: int) -> float:
    """Signal attenuation 1/(d^3 + 1) of the partial-transpose SPA."""
    return 1.0 / (d**3 + 1.0)


def affine_map(pt_eigenvalue: float, d: int) -> float:
    """Channel-output eigenvalue produced by a PT eigenvalue."""
    return d / (d**3 + 1.0) + pt_eigenvalue / (d**3 + 1.0)


def inverse_affine(channel_eigenvalue: float, d: int) -> float:
    """Exact inverse of :func:`affine_map`."""
    return (d**3 + 1.0) * channel_eigenvalue - d


def apply_spa_pt(state: DensityMatrix) -> DensityMatrix:
    """Approximate partial transpose as a channel on a d (x) d state.

    Output = [d/(d^3+1)] I + [1/(d^3+1)] rho^T_B, whose spectrum is the affine
    image of the PT spectrum: valid by construction, so not re-checked.
    """
    da, db = state.dims
    if da != db:
        raise ValueError(
            f"closed-form SPA needs equal local dimensions, got {state.dims}; "
            "use spa_threshold_by_choi for the general weight"
        )
    dim = state.dim
    s = spa_shrink(da)
    pt = partial_transpose(state.matrix, state.dims, "B")
    return DensityMatrix._valid((1.0 - s) * np.eye(dim) / dim + s * pt, state.dims)


def choi_matrix(map_fn: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Choi operator: apply the map to one half of the unnormalized
    maximally entangled projector on the doubled input space."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis[i, j] = 1.0
            block = map_fn(basis.copy())
            out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = block
            basis[i, j] = 0.0
    return out


def spa_threshold_by_choi(
    dims: tuple[int, int],
    target: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Largest weight of the target map that keeps the mixture a channel.

    Bisects the mixing weight p of  (1-p) * white-noise + p * target  until
    the Choi matrix stops being PSD (min eigenvalue >= -CHOI_PSD_TOL), to
    precision CHOI_BISECT_TOL.  ``target`` is a map on matrices, the partial
    transpose on B by default.  For the partial transpose on d (x) d the
    result is 1/(d^3 + 1); an already-CP target returns 1.
    """
    dim = dims[0] * dims[1]
    choi_target = choi_matrix(target or (lambda m: partial_transpose(m, dims, "B")), dim)
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
    rho, rho_tilde = state.matrix, spin_flip(state)
    prod = rho @ rho_tilde
    sums = [complex(np.trace(prod)).real]
    for _ in range(3):
        prod = prod @ rho @ rho_tilde
        sums.append(complex(np.trace(prod)).real)
    return tuple(sums)


#: d_k^3 + 1 for the four copy groups; the factor by which shot noise on the
#: binary observable is amplified into the k-th moment estimate
AMPLIFICATION_FACTORS = {k: 4 ** (3 * k) + 1 for k in (1, 2, 3, 4)}


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
    d: int
    amplification: int
    offset: int
    d_cubed_offset: int

    def moment(self, mean: float) -> float:
        """p_k = (d_k^3 + 1) * mean - 4 d_k from the observable's +-1 mean."""
        return self.amplification * mean - self.offset


#: the four group read-outs, built once (d_k = 4^k)
_SPECS = {k: MomentObservableSpec(k, copies=2 * k, d=4**k, amplification=amp, offset=4 * 4**k,
                                  d_cubed_offset=4 ** (3 * k)) for k, amp in AMPLIFICATION_FACTORS.items()}


def moment_observable_spec(k: int) -> MomentObservableSpec:
    if k not in (1, 2, 3, 4):
        raise ValueError(f"group index must be 1..4, got {k}")
    return _SPECS[k]


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
        spec = moment_observable_spec(self.k)
        return (spec.offset + self.p_k) / spec.amplification


def group_channel_outputs(state: DensityMatrix) -> tuple[GroupChannelOutput, ...]:
    """The four group channel outputs of a two-qubit state, k = 1..4."""
    return tuple(GroupChannelOutput(k, p) for k, p in enumerate(ladder_power_sums(state), 1))


def group_channel_output(state: DensityMatrix, k: int) -> GroupChannelOutput:
    index = moment_observable_spec(k).k - 1  # the spec rejects k outside 1..4
    return group_channel_outputs(state)[index]
