"""State construction, validation, serialization, determinism."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmoment import sampling, spa, states


def test_bell_is_pure_maximally_entangled():
    b = states.bell_state()
    assert abs(np.trace(b.matrix @ b.matrix).real - 1.0) < 1e-12
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(b.matrix, np.outer(psi, psi.conj()), atol=1e-15)


def test_werner_zero_is_maximally_mixed():
    np.testing.assert_allclose(states.werner_state(0.0).matrix, np.eye(4) / 4, atol=1e-15)


def test_werner_closed_form_spectrum():
    for p in np.linspace(0, 1, 11):
        w = np.sort(np.linalg.eigvalsh(states.werner_state(float(p)).matrix))
        expected = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
        np.testing.assert_allclose(w, expected, atol=1e-12)


def test_werner_out_of_range():
    with pytest.raises(ValueError):
        states.werner_state(1.2)


def test_isotropic_matches_werner_for_two_qubits():
    np.testing.assert_allclose(
        states.isotropic_state(2, 0.7).matrix, states.werner_state(0.7).matrix, atol=1e-15
    )


def test_random_families_pass_invariants():
    rng = states.rng_stream(100, 0)
    for family in ("product-pure", "random-pure", "random-mixed"):
        for dims in ((2, 2), (2, 3), (3, 3)):
            st = states.make_state(family, dims=dims, rng=rng)  # construction checks the invariants
            assert st.dims == dims


def test_random_pure_purity_one():
    rng = states.rng_stream(101, 0)
    for _ in range(100):
        st = states.random_pure_state((2, 2), rng)
        assert abs(np.trace(st.matrix @ st.matrix).real - 1.0) < 1e-12


def test_random_mixed_purity_below_one():
    rng = states.rng_stream(102, 0)
    for _ in range(100):
        st = states.random_mixed_state((2, 2), rng)
        assert np.trace(st.matrix @ st.matrix).real < 1.0 - 1e-12


def test_determinism_same_seed_same_matrix():
    a = states.random_mixed_state((2, 2), states.rng_stream(7, 3))
    b = states.random_mixed_state((2, 2), states.rng_stream(7, 3))
    assert np.array_equal(a.matrix, b.matrix)
    c = states.random_mixed_state((2, 2), states.rng_stream(7, 4))
    assert not np.array_equal(a.matrix, c.matrix)


# Oracle: the streams of one run, mixed from the seed once, against numpy's
# own SeedSequence(seed, spawn_key=(k,)) construction.  The example budget
# comes from the hypothesis profile (--hypothesis-profile=ci runs more).

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**128 - 1, 2**128, 2**128 + 1, 2**200]
seeds = st.one_of(
    st.sampled_from(EDGE_SEEDS),
    st.integers(0, 2**200),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
one_word = st.integers(0, 2**32 - 1)
stream_ids = st.lists(st.one_of(st.integers(0, 40), one_word, one_word.map(np.int64), one_word.map(np.uint32)),
                      min_size=1, max_size=36)


@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(seeds, stream_ids)
@example(2**32, [0])  # the word-count edges: 2, 5 and 7 words
@example(2**128, [3])
@example(2**200, [2**32 - 1])
@example(np.uint64(2**64 - 1), [1])  # numpy seeds, read as the ints they hold
@example(7, [np.int64(3), np.uint32(2**32 - 1), np.uint64(5)])  # numpy ids, read as the ints they hold
def test_rng_streams_match_rng_stream(seed, streams):
    rngs = states._rng_streams(seed, streams)
    assert len(rngs) == len(streams)
    for k, rng in zip(streams, rngs):
        expected = states.rng_stream(seed, k)
        numpys = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        assert rng.bit_generator.state == expected.bit_generator.state == numpys.bit_generator.state
        assert rng.random(2).tobytes() == expected.random(2).tobytes()
        assert rng.binomial(10**6, 0.3) == expected.binomial(10**6, 0.3)


# lists, nested lists and arrays, which numpy would hash as seeds, follow the one integer rule too
@pytest.mark.parametrize("seed", [None, -1, -(2**40), 0.5, 1.5, 3.0, np.float64(2.0), [3, -1], [2.0], "7",
                                  True, [True, 2], np.bool_(True), [], [3], [0, 2**63], [[1, 2**40], [0, 2**100]],
                                  np.array([0, 5, 2**64 - 1], dtype=np.uint64)])
def test_rng_streams_reject_the_seeds_rng_stream_rejects(seed):
    with pytest.raises(ValueError, match="^seed must be an integer of at least 0, got ") as expected:
        states.rng_stream(seed, 1)
    with pytest.raises(ValueError) as got:
        states._rng_streams(seed, [1])
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("stream", [-1, 2**32, np.int64(-1), np.uint64(2**32)])
def test_rng_streams_reject_stream_ids_beyond_one_word(stream):
    # rng_stream alone could take 2**32 and more, which the one-mix replay cannot
    with pytest.raises(ValueError, match="stream ids"):
        states._rng_streams(7, [1, stream])
    with pytest.raises(ValueError, match="stream ids"):
        states.rng_stream(7, stream)


# The key terms a block of stream ids mixes in are kept per (block, hash
# count); a kept entry must serve a repeated call exactly as a fresh one.
# Seeds of 1, 2, 3 and 5 words: up to 4 the pool is hashed 16 times, at 5
# 20 times, so the same block takes a second entry.
word_count_seeds = st.one_of(*(st.integers(2 ** (32 * w - 32) if w > 1 else 0, 2 ** (32 * w) - 1)
                               for w in (1, 2, 3, 5)))


@settings(deadline=None, derandomize=True)
@given(word_count_seeds, word_count_seeds, st.integers(1, 3), st.integers(0, 16))
def test_rng_streams_key_terms_serve_first_and_repeated_calls_alike(seed, other, first, n):
    block = range(first, first + n)
    states._key_terms.cache_clear()
    # a first call builds the block's key terms, the other seed's call reads or adds
    # its own, and the repeated call reads them back
    for s in (seed, other, seed):
        want = [states.rng_stream(s, k).bit_generator.state for k in block]
        assert [rng.bit_generator.state for rng in states._rng_streams(s, block)] == want


def test_rng_streams_check_stream_ids_before_the_key_terms_lookup():
    # (0, True) == (0, 1) as tuple keys: a served [0, 1] must not let True through
    states._rng_streams(7, [0, 1])
    for bad in ([0, True], [0, 1.5]):
        with pytest.raises(ValueError, match="^stream ids must be 0..4294967295, got "):
            states._rng_streams(7, bad)


def test_rng_streams_key_terms_stay_bounded_and_read_only():
    states._key_terms.cache_clear()
    for first in range(3 * states._KEY_TERMS_KEPT):
        states._rng_streams(1, [first, first + 1])
    info = states._key_terms.cache_info()
    assert info.currsize == info.maxsize == states._KEY_TERMS_KEPT
    assert not states._key_terms((1, 2), 16).flags.writeable


def test_rng_streams_of_an_empty_block_is_empty():
    assert states._rng_streams(7, []) == [] == states._rng_streams(2**200, range(3, 3))


REFUSAL = re.compile(r"^not a density matrix: (?P<rules>[a-z, ]+) violated \(hermiticity_defect=(?P<herm>\S+), "
                     r"trace_defect=(?P<trace>\S+), min_eigenvalue=(?P<min_eig>\S+)\)$")


def refusal(matrix):
    """The broken rules and the three residuals that construction names for ``matrix``."""
    with pytest.raises(ValueError) as info:
        states.DensityMatrix(matrix, (2, 2))
    found = REFUSAL.match(str(info.value))
    assert found, str(info.value)
    return found["rules"].split(", "), {key: float(found[key]) for key in ("herm", "trace", "min_eig")}


def test_validate_clean_state():
    assert states.DensityMatrix(np.eye(4) / 4, (2, 2)).matrix.tobytes() == (np.eye(4, dtype=complex) / 4).tobytes()
    # all three residuals just inside their tolerances: the state is taken
    assert states.HERMITICITY_TOL == states.TRACE_TOL == states.EIGENVALUE_TOL == 1e-9
    m = np.diag([0.5 + 0.9e-9, 0.5 + 0.9e-9, -0.9e-9, 0.0]).astype(complex)
    m[0, 1] = 0.9e-9
    states.DensityMatrix(m, (2, 2))


def test_validate_trace_defect():
    m = np.eye(4) / 4
    m[0, 0] += 0.01
    rules, residuals = refusal(m)
    assert rules == ["trace"]
    assert residuals["herm"] == 0.0 and abs(residuals["trace"] - 0.01) < 1e-12 and residuals["min_eig"] == 0.25


def test_validate_negative_eigenvalue():
    rules, residuals = refusal(np.diag([1.1, -0.1, 0.0, 0.0]))
    assert rules == ["positivity"]
    assert residuals["herm"] == 0.0 and residuals["trace"] < 1e-15 and abs(residuals["min_eig"] + 0.1) < 1e-12
    # every broken rule is named, in the order hermiticity, trace, positivity
    m = np.diag([1.2, -0.1, 0.0, 0.0])
    m[0, 1] = 0.1
    rules, residuals = refusal(m)
    assert rules == ["hermiticity", "trace", "positivity"]
    assert abs(residuals["herm"] - 0.1) < 1e-12 and abs(residuals["trace"] - 0.1) < 1e-12
    assert residuals["min_eig"] < -0.1


def test_density_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        states.DensityMatrix(np.diag([1.1, -0.1, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError):
        states.DensityMatrix(np.eye(4) / 4, (2, 3))
    for bad in (np.nan, np.inf):
        m = np.eye(4) / 4
        m[0, 3] = m[3, 0] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            states.DensityMatrix(m, (2, 2))
    # malformed dims are refused, not truncated to (2, 2) or read as (1, 4)
    for dims in [(2.9, 2.1), (True, 4), (0, 4), (2, 2, 1)]:
        with pytest.raises(ValueError, match="integers of at least 1"):
            states.DensityMatrix(np.eye(4) / 4, dims)
    assert states.DensityMatrix(np.eye(4) / 4, [np.int64(2), 2]).dims == (2, 2)


def test_density_matrix_coerces_and_scans_once(monkeypatch):
    calls = []
    real = states.as_complex_matrix
    monkeypatch.setattr(states, "as_complex_matrix", lambda m: calls.append(1) or real(m))
    states.DensityMatrix(np.eye(4) / 4, (2, 2))
    assert len(calls) == 1


def test_density_matrix_compares_and_hashes_by_identity():
    a, b = states.werner_state(0.5), states.werner_state(0.5)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2 and a in {a} and b not in {a}


def test_density_matrix_is_read_only():
    st = states.bell_state()
    with pytest.raises(ValueError):
        st.matrix[0, 0] = 5.0


# ----------------------------------------------------------- serialization

def test_round_trip_bell_bit_exact():
    b = states.bell_state()
    rt = states.state_from_json(states.state_to_json(b))
    assert np.array_equal(rt.matrix, b.matrix)
    assert rt.dims == b.dims


def test_round_trip_random_preserves_spectrum():
    st = states.random_mixed_state((2, 2), states.rng_stream(55, 0))
    rt = states.state_from_json(states.state_to_json(st))
    assert np.array_equal(rt.matrix, st.matrix)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rt.matrix), np.linalg.eigvalsh(st.matrix), atol=0
    )


def test_round_trip_werner_eigenvalues():
    st = states.werner_state(0.5)
    rt = states.state_from_json(states.state_to_json(st))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rt.matrix), np.linalg.eigvalsh(st.matrix), atol=1e-15
    )


def test_reject_wrong_grid_shape():
    record = {"dims": [2, 2], "re": [[0.25] * 5 for _ in range(5)], "im": [[0.0] * 5 for _ in range(5)]}
    with pytest.raises(ValueError, match="grid"):
        states.state_from_json(json.dumps(record))


def test_reject_ragged_grid():
    good = json.loads(states.state_to_json(states.bell_state()))
    good["re"][2] = good["re"][2][:3]
    with pytest.raises(ValueError, match="rectangular"):
        states.state_from_json(json.dumps(good))


def test_reject_missing_keys_and_bad_json():
    with pytest.raises(ValueError):
        states.state_from_json("{not json")
    with pytest.raises(ValueError, match="missing"):
        states.state_from_json(json.dumps({"dims": [2, 2], "re": []}))
    with pytest.raises(ValueError, match="state record must be a JSON object"):
        states.state_from_json("[1, 2]")


def test_reject_invariant_violation_with_residuals():
    record = {
        "dims": [2, 2],
        "re": [[0.5, 0, 0, 0], [0, 0.6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "im": [[0.0] * 4 for _ in range(4)],
    }
    with pytest.raises(ValueError, match="trace"):
        states.state_from_json(json.dumps(record))


def _mixed_record(**changes) -> str:
    """The maximally mixed two-qubit record, with some keys replaced."""
    record = json.loads(states.state_to_json(states.werner_state(0.0)))
    return json.dumps({**record, **changes})


def _grid_with_first_entry(value):
    grid = [[0.0] * 4 for _ in range(4)]
    grid[0][0] = value
    return grid


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"dims": [None, 2]}, "integers of at least 1"),
        ({"dims": [2.9, 2.1]}, "integers of at least 1"),  # was truncated to (2, 2)
        ({"dims": [True, 4]}, "integers of at least 1"),  # was read as (1, 4)
        ({"re": _grid_with_first_entry(None)}, "not a number"),
        ({"re": _grid_with_first_entry("0.25")}, "not a number"),
        ({"im": _grid_with_first_entry(10**400)}, "beyond float range"),
    ],
    ids=["null-dims", "float-dims", "bool-dims", "null-entry", "string-entry", "huge-int-entry"],
)
def test_reject_malformed_dims_and_entries(changes, message):
    with pytest.raises(ValueError, match=message):
        states.state_from_json(_mixed_record(**changes))


def test_integer_grid_entries_still_parse():
    record = {"dims": [1, 1], "re": [[1]], "im": [[0]]}
    assert states.state_from_json(json.dumps(record)).dims == (1, 1)


def test_make_state_dispatch_errors():
    with pytest.raises(ValueError, match="unknown state family"):
        states.make_state("ghz")
    with pytest.raises(ValueError, match="mixing weight"):
        states.make_state("werner")
    with pytest.raises(ValueError, match="rng"):
        states.make_state("random-mixed")
    # local dims are checked before any family code runs: no numpy error or warning first
    rng = states.rng_stream(5, 0)
    for family, dims, kwargs in [("isotropic", (0, 0), {"p": 0.5}), ("isotropic", (-1, -1), {"p": 0.5}),
                                 ("isotropic", (2.5, 2.5), {"p": 0.5}), ("random-mixed", (2.5, 2), {"rng": rng}),
                                 ("product-pure", (-1, 2), {"rng": rng}), ("random-pure", (True, 2), {"rng": rng}),
                                 ("bell", (2, 2, 1), {}), ("werner", 4, {"p": 0.5})]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"dims must be \[dimA, dimB\], integers of at least 1"):
                states.make_state(family, dims, **kwargs)
    assert states.make_state("isotropic", [np.int64(3), 3], p=0.5).dims == (3, 3)
    with pytest.raises(ValueError, match="isotropic states need equal local dimensions"):
        states.make_state("isotropic", dims=(2, 3), p=0.5)


def test_family_constructors_check_dims_at_entry():
    # called directly, not through make_state: the same refusal, no numpy error or warning first
    rng = states.rng_stream(5, 0)
    for build in [lambda: states.isotropic_state(-1, 0.5), lambda: states.isotropic_state(0, 0.5),
                  lambda: states.isotropic_state(2.5, 0.5), lambda: states.random_mixed_state((2.5, 2), rng),
                  lambda: states.product_pure_state((0, 2), rng), lambda: states.random_pure_state((-1, 2), rng),
                  lambda: states.random_pure_state((True, 2), rng)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integers of at least 1"):
                build()
    assert states.isotropic_state(np.int64(3), 0.5).dims == (3, 3)


@pytest.mark.parametrize("with_p", [True, False])
@pytest.mark.parametrize("family", states.FAMILIES)
def test_make_state_takes_p_exactly_for_weighted_families(family, with_p):
    kwargs = dict(p=0.3 if with_p else None, rng=states.rng_stream(5, 0))
    if with_p == (family in ("werner", "isotropic")):
        assert isinstance(states.make_state(family, **kwargs), states.DensityMatrix)
    else:
        with pytest.raises(ValueError, match="mixing weight"):
            states.make_state(family, **kwargs)


def test_two_qubit_families_reject_other_dims():
    for family in ("bell", "werner"):
        with pytest.raises(ValueError, match="use isotropic"):
            states.make_state(family, dims=(3, 3), p=0.5)
    assert states.make_state("werner", dims=(2, 2), p=0.5).dims == (2, 2)


# ----------------------------------------------- quantities derived once per state

def test_derived_computes_once_per_state_and_keeps_no_refusal():
    calls = []

    def derive(state):
        calls.append(state)
        if len(calls) <= 2:
            raise ValueError("refused")
        return (float(state.matrix[0, 0].real),)

    state = states.werner_state(0.4)
    for _ in range(2):  # a refusal raises on every call and is not kept
        with pytest.raises(ValueError, match="^refused$"):
            state._derived(derive)
    assert derive not in state.__dict__.get("_memo", {})
    first = state._derived(derive)
    assert state._derived(derive) is first and len(calls) == 3
    # a new state of the same matrix derives anew
    twin = states.DensityMatrix(state.matrix, state.dims)
    assert twin._derived(derive) == first and len(calls) == 4
    # so does a state wrapped without the check, once
    wrapped = states.DensityMatrix._valid(state.matrix.copy(), state.dims)
    assert wrapped._derived(derive) == wrapped._derived(derive) == first and len(calls) == 5


def memoized_quantities(state):
    """Every quantity derived once per state, as the floats its route hands out."""
    run = sampling.run_tomography_baseline(state, mode="ideal")
    return {"ladder_means": spa._ladder_means(state), "pauli_expectations": list(run.expectations.values())}


@st.composite
def two_qubit_states(draw):
    family = draw(st.sampled_from(states.FAMILIES))
    p = draw(st.floats(0, 1)) if family in ("werner", "isotropic") else None
    return states.make_state(family, p=p, rng=states.rng_stream(draw(st.integers(0, 2**32)), 0))


# The example budget comes from the hypothesis profile (--hypothesis-profile=ci runs more).

@settings(deadline=None, derandomize=True)
@given(two_qubit_states())
def test_derived_once_equals_a_fresh_state_bit_for_bit(state):
    first, second = memoized_quantities(state), memoized_quantities(state)
    fresh = memoized_quantities(states.DensityMatrix(state.matrix, state.dims))
    for name, want in fresh.items():
        want = np.array(want)
        for got in (first[name], second[name]):
            got = np.array(got)
            assert got.dtype == want.dtype == np.float64, name
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), name
