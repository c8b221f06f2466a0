"""Bipartite density matrices: construction, validation, serialization, RNG.

State families used throughout the test and simulation pipelines:

- ``bell``          maximally entangled (|00> + |11>)/sqrt(2) projector
- ``werner``        p |Phi+><Phi+| + (1-p) I/4 on two qubits
- ``isotropic``     same mixture with the d-dimensional |Phi+> on d (x) d
- ``product-pure``  |a><a| (x) |b><b| with Haar-random local kets
- ``random-pure``   projector onto a normalized complex Gaussian vector
- ``random-mixed``  G G^dagger / Tr(G G^dagger), square complex Gaussian G
                    (the Hilbert-Schmidt ensemble)

A caller-supplied matrix is wrapped directly: ``DensityMatrix(matrix, dims)``,
which ``make_state`` and ``state_from_json`` build through too; SPA channel
outputs and tomography estimates are valid by construction and skip its check.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import FAMILIES, _local_dims, _real, _whole
from .linalg import HERMITICITY_TOL, as_complex_matrix, hermiticity_defect

TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

#: largest stream id: one 32-bit word, all the seed-hash replay of ``_rng_streams`` takes
_MAX_STREAM = 2**32 - 1


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream).

    Identical pairs give identical draw sequences; distinct stream ids give
    statistically independent streams, which is how parallel estimators and
    per-moment samplers stay reproducible under partial re-runs.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))


def _seed_sequence(seed, *streams) -> np.random.SeedSequence:
    """``SeedSequence(seed, spawn_key=streams)``; ValueError on a bad seed or stream id (see ``_MAX_STREAM``)."""
    seed = _whole(seed, "seed", 0)
    return np.random.SeedSequence(seed, spawn_key=[_whole(k, "stream ids", 0, _MAX_STREAM) for k in streams])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.array([0xCA01F9DD, 0x4973F715, 16], dtype=np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..count, as uint32."""
    return np.multiply.accumulate(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)


#: (stream block, hash count) key terms kept by ``_key_terms``; a run uses one
#: block per pipeline, and every seed below 2**128 hashes its pool 16 times
_KEY_TERMS_KEPT = 64


@functools.lru_cache(maxsize=_KEY_TERMS_KEPT)
def _key_terms(keys: tuple[int, ...], hashes: int) -> np.ndarray:
    """MIX_MULT_R times each key word hashed once per pool word, the hash
    constant advanced ``hashes`` times: the (len(keys), 4) uint32 half of the
    key mix that no seed enters, read-only."""
    hash_const = _hash_constants(_INIT_A, _MULT_A, hashes + 4)[hashes:]
    key = (np.array(keys, dtype=np.uint32)[:, None] ^ hash_const[:4]) * hash_const[1:]
    key ^= key >> _XSHIFT
    out = _MIX_MULT_R * key
    out.setflags(write=False)
    return out


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
    advanced ``4 * max(4, w)`` times, w the seed's 32-bit word count (its
    bit length over 32, rounded up).  The key word's hashes depend on the
    stream ids and w alone, so ``_key_terms`` keeps them per (block, w); a
    call mixes them into the pool and redoes ``generate_state(4, uint64)``
    for all streams at once, on uint32 words only.  The generators cannot
    ``spawn()``.  The stream ids and seeds ``rng_stream`` rejects raise
    ValueError, checked before any lookup: ``(0, True) == (0, 1)`` as keys.
    """
    keys = tuple([_whole(k, "stream ids", 0, _MAX_STREAM) for k in streams])
    run = _seed_sequence(seed)
    pool = _MIX_MULT_L * run.pool - _key_terms(keys, 4 * max(4, -(-run.entropy.bit_length() // 32)))
    pool ^= pool >> _XSHIFT
    # generate_state: 8 words cycling twice through the pool, paired
    # little-endian into 4 uint64 words as numpy pairs them
    words = (pool[:, None, :] ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> _XSHIFT
    state = words.astype("<u4", copy=False).view("<u8").reshape(-1, 4).astype(np.uint64, copy=False)
    preset = _preset_seed_sequence()
    return [np.random.Generator(np.random.PCG64(preset(row))) for row in state]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite quantum state: complex matrix plus (dimA, dimB) split.

    Construction is the one check that a matrix is a state: its ValueError
    names each broken rule (hermiticity, trace, positivity) and the three
    residuals.  Equality and hashing are by identity: the generated field
    comparison would ask an ndarray for one truth value and raise.

    Two exact quantities are derived once per state, through :meth:`_derived`,
    and kept as long as the state lives: the four ladder means (``spa``) and
    the 15 Pauli expectations (``sampling``), each kept as an immutable tuple;
    the sampled runs read them again at every shot count and repetition.
    Nothing can make a kept value stale: the matrix is a private read-only
    copy, the fields are frozen, and a state equals only itself, so a new
    state, even of the same matrix, derives anew.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        da, db = _local_dims(self.dims)
        if da * db != m.shape[0]:
            raise ValueError(f"dims {self.dims} incompatible with matrix dimension {m.shape[0]}")
        herm = hermiticity_defect(m)
        trace = float(abs(m.trace() - 1.0))
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
        broken = [rule for rule, bad in (("hermiticity", herm > HERMITICITY_TOL), ("trace", trace > TRACE_TOL),
                                         ("positivity", min_eig < -EIGENVALUE_TOL)) if bad]
        if broken:
            raise ValueError(f"not a density matrix: {', '.join(broken)} violated (hermiticity_defect={herm!r}, "
                             f"trace_defect={trace!r}, min_eigenvalue={min_eig!r})")
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

    def _derived(self, fn):
        """``fn(self)``, computed on the first call and kept; ``fn`` reads the state
        alone and returns a value no caller can change.  A refusal is not kept."""
        memo = self.__dict__.setdefault("_memo", {})
        if fn not in memo:
            memo[fn] = fn(self)
        return memo[fn]


def _ket_projector(psi: np.ndarray) -> np.ndarray:
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def max_entangled_ket(d: int) -> np.ndarray:
    """(|00> + |11> + ... )/sqrt(d) on a d (x) d space."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def bell_state() -> DensityMatrix:
    return isotropic_state(2, 1.0)


def werner_state(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; entangled iff p > 1/3."""
    return isotropic_state(2, p)


def isotropic_state(d: int, p: float) -> DensityMatrix:
    """p |Phi+_d><Phi+_d| + (1-p) I/d^2 on d (x) d: the werner state at
    d = 2, the bell state at d = 2 and p = 1."""
    d = _local_dims((d, d), "isotropic dims")[0]
    _real(p, "the mixing weight p", 0, 1)
    m = p * _ket_projector(max_entangled_ket(d)) + (1.0 - p) * np.eye(d * d) / (d * d)
    return DensityMatrix(m, (d, d))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    dim = _whole(dim, "dim", 1)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    dims = _local_dims(dims)
    d = dims[0] * dims[1]
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix(_ket_projector(psi), dims)


def random_mixed_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt ensemble: normalized G G^dagger with square Ginibre G."""
    dims = _local_dims(dims)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def product_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> DensityMatrix:
    dims = _local_dims(dims)
    kets = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kets.append(v / np.linalg.norm(v))
    return DensityMatrix(_ket_projector(np.kron(kets[0], kets[1])), dims)


_RANDOM_FAMILIES = {"product-pure": product_pure_state, "random-pure": random_pure_state,
                    "random-mixed": random_mixed_state}


def make_state(
    family: str,
    dims: tuple[int, int] = (2, 2),
    p: float | None = None,
    rng: np.random.Generator | None = None,
) -> DensityMatrix:
    """Dispatch constructor over the named state families and the one owner of
    their rules, each broken one a ValueError: dims are two integers >= 1; bell
    and werner are two-qubit; werner and isotropic need the mixing weight p, the
    others refuse it; isotropic needs equal local dims; random ones need an rng."""
    if family not in FAMILIES:
        raise ValueError(f"unknown state family {family!r}; known: {', '.join(FAMILIES)}")
    dims = _local_dims(dims)
    if family in ("bell", "werner") and dims != (2, 2):
        raise ValueError(f"{family} states are two-qubit, got dims {dims}; use isotropic for d (x) d")
    if (p is None) == (family in ("werner", "isotropic")):
        raise ValueError(f"{family} family needs the mixing weight p" if p is None
                         else f"p is the mixing weight of werner and isotropic states; {family} takes none")
    if family == "isotropic" and dims[0] != dims[1]:
        raise ValueError("isotropic states need equal local dimensions")
    if family not in _RANDOM_FAMILIES:
        return isotropic_state(dims[0], 1.0 if p is None else p)
    if rng is None:
        raise ValueError(f"{family} family needs an rng")
    return _RANDOM_FAMILIES[family](dims, rng)


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


def _parse_grid(raw, name: str, dim: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValueError(f"state record: '{name}' must be a {dim}-row grid")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"state record: '{name}' grid is not rectangular {dim}x{dim}")
        if not all(type(x) in (int, float) for x in row):  # JSON true/false load as bool
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
    da, db = _local_dims(payload["dims"], "state record: 'dims'")
    dim = da * db
    re = _parse_grid(payload["re"], "re", dim)
    im = _parse_grid(payload["im"], "im", dim)
    return DensityMatrix(re + 1j * im, (da, db))
