"""Bipartite density matrices: construction, validation, serialization, RNG.

State families used throughout the test and simulation pipelines:

- ``bell``          maximally entangled (|00> + |11>)/sqrt(2) projector
- ``werner``        p |Phi+><Phi+| + (1-p) I/4 on two qubits
- ``isotropic``     same mixture with the d-dimensional |Phi+> on d (x) d
- ``product-pure``  |a><a| (x) |b><b| with Haar-random local kets
- ``random-pure``   projector onto a normalized complex Gaussian vector
- ``random-mixed``  G G^dagger / Tr(G G^dagger), square complex Gaussian G
                    (the Hilbert-Schmidt ensemble)

A caller-supplied matrix is wrapped directly: ``DensityMatrix(matrix, dims)``.
That, ``make_state`` and ``state_from_json`` check every invariant; SPA channel
outputs and tomography estimates are valid by construction and skip the check.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import HERMITICITY_TOL, as_complex_matrix, hermiticity_defect

TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

FAMILIES = (
    "bell",
    "werner",
    "isotropic",
    "product-pure",
    "random-pure",
    "random-mixed",
)


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream).

    Identical pairs give identical draw sequences; distinct stream ids give
    statistically independent streams, which is how parallel estimators and
    per-moment samplers stay reproducible under partial re-runs.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))


def _seed_sequence(seed, *spawn_key) -> np.random.SeedSequence:
    """``SeedSequence(seed, spawn_key)``; ValueError unless seed is a non-negative int or a list of them."""
    words = np.ravel(seed)
    if words.dtype.kind == "f":  # numpy reads a list like [0, 2**63] as floats; keep its ints
        words = np.ravel(np.array(seed, dtype=object))
    if not all(isinstance(w, int) and w >= 0 for w in words.tolist()):
        raise ValueError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.array([0xCA01F9DD, 0x4973F715, 16], dtype=np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..count, as uint32."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)


#: generate_state xors word i with INIT_B * MULT_B**i, then multiplies it by
#: INIT_B * MULT_B**(i + 1); PCG64's 8 words cycle twice through the 4-word
#: pool, hence the (pass, pool word) layout
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_XOR, _STATE_MULT = _STATE_HASH[:8].reshape(2, 4), _STATE_HASH[1:].reshape(2, 4)


@functools.cache
def _preset_seed_sequence() -> type:
    """A seed sequence that hands PCG64 its four state words as given; built on
    first use, as numpy.random costs 10-17 ms to import."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetWords


def _rng_streams(seed, streams) -> list[np.random.Generator]:
    """``rng_stream(seed, k)`` for every k in ``streams``, same states, with the
    seed mixed once.

    ``SeedSequence(seed)`` leaves the pool that every ``SeedSequence(seed,
    spawn_key=(k,))`` holds before its key word is mixed in (numpy hashes
    its zero padding as it hashes empty pool slots), its hash constant
    advanced ``4 * max(4, entropy words)`` times.  The key word and
    ``generate_state(4, uint64)`` are then redone for all streams at once,
    on uint32 words only.  The generators cannot ``spawn()``.  Stream ids
    outside [0, 2**32) and seeds ``rng_stream`` rejects raise ValueError.
    """
    from numpy.random.bit_generator import _coerce_to_uint32_array

    keys = list(streams)
    if not all(0 <= k < 2**32 for k in keys):
        raise ValueError(f"stream ids must lie in [0, 2**32), got {keys!r}")
    run = _seed_sequence(seed)
    hashes = 4 * max(4, len(_coerce_to_uint32_array(run.entropy)))
    hash_const = _hash_constants(_INIT_A, _MULT_A, hashes + 4)[hashes:]
    # the key word, hashed once per pool word, mixed into that word
    key = (np.array(keys, dtype=np.uint32)[:, None] ^ hash_const[:4]) * hash_const[1:]
    key ^= key >> _XSHIFT
    pool = _MIX_MULT_L * run.pool - _MIX_MULT_R * key
    pool ^= pool >> _XSHIFT
    # generate_state: 8 words cycling twice through the pool, paired
    # little-endian into 4 uint64 words
    words = ((pool[:, None, :] ^ _STATE_XOR) * _STATE_MULT).reshape(-1, 4, 2)
    words ^= words >> _XSHIFT
    words = words.astype(np.uint64)
    state = words[..., 0] | words[..., 1] << np.uint64(32)
    preset = _preset_seed_sequence()
    return [np.random.Generator(np.random.PCG64(preset(row))) for row in state]


class StateDiagnostics(NamedTuple):
    """Residuals of the three density-matrix invariants."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def violations(self) -> tuple[str, ...]:
        out = []
        if self.hermiticity_defect > HERMITICITY_TOL:
            out.append("hermiticity")
        if self.trace_defect > TRACE_TOL:
            out.append("trace")
        if self.min_eigenvalue < -EIGENVALUE_TOL:
            out.append("positivity")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_state(matrix) -> StateDiagnostics:
    """Report hermiticity defect, trace defect and minimum eigenvalue."""
    return _diagnostics(as_complex_matrix(matrix))


def _diagnostics(m: np.ndarray) -> StateDiagnostics:
    """validate_state of a matrix already coerced by as_complex_matrix."""
    herm = hermiticity_defect(m)
    trace = float(abs(np.trace(m) - 1.0))
    sym = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return StateDiagnostics(herm, trace, min_eig)


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite quantum state: complex matrix plus (dimA, dimB) split."""

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        da, db = int(self.dims[0]), int(self.dims[1])
        if da < 1 or db < 1 or da * db != m.shape[0]:
            raise ValueError(f"dims {self.dims} incompatible with matrix dimension {m.shape[0]}")
        diag = _diagnostics(m)
        if not diag.ok:
            raise ValueError(f"not a density matrix: {', '.join(diag.violations)} violated ({diag})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", (da, db))

    @classmethod
    def _valid(cls, matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
        """Wrap a fresh complex matrix that is valid by construction: frozen, not copied or checked."""
        matrix.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(matrix=matrix, dims=dims)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagnostics(self) -> StateDiagnostics:
        return validate_state(self.matrix)


def _ket_projector(psi: np.ndarray) -> np.ndarray:
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def max_entangled_ket(d: int) -> np.ndarray:
    """(|00> + |11> + ... )/sqrt(d) on a d (x) d space."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def bell_state() -> DensityMatrix:
    return DensityMatrix(_ket_projector(max_entangled_ket(2)), (2, 2))


def werner_state(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; entangled iff p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {p}")
    m = p * _ket_projector(max_entangled_ket(2)) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(m, (2, 2))


def isotropic_state(d: int, p: float) -> DensityMatrix:
    """p |Phi+_d><Phi+_d| + (1-p) I/d^2 on d (x) d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"isotropic weight must lie in [0, 1], got {p}")
    m = p * _ket_projector(max_entangled_ket(d)) + (1.0 - p) * np.eye(d * d) / (d * d)
    return DensityMatrix(m, (d, d))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    d = dims[0] * dims[1]
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix(_ket_projector(psi), dims)


def random_mixed_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt ensemble: normalized G G^dagger with square Ginibre G."""
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def product_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    kets = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kets.append(v / np.linalg.norm(v))
    return DensityMatrix(_ket_projector(np.kron(kets[0], kets[1])), dims)


def make_state(
    family: str,
    dims: tuple[int, int] = (2, 2),
    p: float | None = None,
    rng: np.random.Generator | None = None,
) -> DensityMatrix:
    """Dispatch constructor over the named state families."""
    if family in ("bell", "werner") and tuple(dims) != (2, 2):
        raise ValueError(f"{family} states are two-qubit, got dims {tuple(dims)}; use isotropic for d (x) d")
    if family == "bell":
        return bell_state()
    if family == "werner":
        if p is None:
            raise ValueError("werner family needs the mixing weight p")
        return werner_state(p)
    if family == "isotropic":
        if p is None:
            raise ValueError("isotropic family needs the mixing weight p")
        if dims[0] != dims[1]:
            raise ValueError("isotropic states need equal local dimensions")
        return isotropic_state(dims[0], p)
    if family in ("product-pure", "random-pure", "random-mixed"):
        if rng is None:
            raise ValueError(f"{family} family needs an rng")
        fn = {
            "product-pure": product_pure_state,
            "random-pure": random_pure_state,
            "random-mixed": random_mixed_state,
        }[family]
        return fn(dims, rng)
    raise ValueError(f"unknown state family {family!r}; known: {', '.join(FAMILIES)}")


# ----------------------------------------------------------------- file format

def state_to_json(state: DensityMatrix) -> str:
    """Portable text record: {"dims": [dA, dB], "re": grid, "im": grid}.

    Floats are emitted with shortest round-trip repr, so the record is
    lossless at binary64 precision.
    """
    m = state.matrix
    payload = {
        "dims": [state.dims[0], state.dims[1]],
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }
    return json.dumps(payload)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true/false load as bool


def _parse_grid(raw, name: str, dim: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValueError(f"state record: '{name}' must be a {dim}-row grid")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"state record: '{name}' grid is not rectangular {dim}x{dim}")
        if not all(_is_int(x) or isinstance(x, float) for x in row):
            raise ValueError(f"state record: '{name}' grid holds an entry that is not a number")
        try:
            rows.append([float(x) for x in row])
        except OverflowError as exc:
            raise ValueError(f"state record: '{name}' grid holds an integer beyond float range") from exc
    return np.array(rows, dtype=float)


def state_from_json(text: str) -> DensityMatrix:
    """Parse a state record; rejects malformed shapes and invalid states."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"state record is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("state record must be a JSON object")
    for key in ("dims", "re", "im"):
        if key not in payload:
            raise ValueError(f"state record is missing '{key}'")
    dims = payload["dims"]
    if not isinstance(dims, list) or len(dims) != 2 or not all(_is_int(d) and d >= 1 for d in dims):
        raise ValueError(f"state record: 'dims' must be [dimA, dimB], integers of at least 1, got {dims!r}")
    da, db = dims
    dim = da * db
    re = _parse_grid(payload["re"], "re", dim)
    im = _parse_grid(payload["im"], "im", dim)
    return DensityMatrix(re + 1j * im, (da, db))
