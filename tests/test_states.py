"""State construction, validation, serialization, determinism."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmoment import states


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
            st = states.make_state(family, dims=dims, rng=rng)
            assert st.diagnostics().ok
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
# own SeedSequence(seed, spawn_key=(k,)) construction in rng_stream.  The
# example budget comes from the hypothesis profile (--hypothesis-profile=ci
# runs more).

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**128 - 1, 2**128, 2**128 + 1, 2**200]
seeds = st.one_of(
    st.sampled_from(EDGE_SEEDS),
    st.integers(0, 2**200),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=6),
)
stream_ids = st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)), min_size=1, max_size=36)


@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(seeds, stream_ids)
@example([0, 2**63], [0])  # numpy infers float64 for this list
def test_rng_streams_match_rng_stream(seed, streams):
    rngs = states._rng_streams(seed, streams)
    assert len(rngs) == len(streams)
    for k, rng in zip(streams, rngs):
        expected = states.rng_stream(seed, k)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.random(2).tobytes() == expected.random(2).tobytes()
        assert rng.binomial(10**6, 0.3) == expected.binomial(10**6, 0.3)


@pytest.mark.parametrize("seed", [None, -1, -(2**40), 0.5, 1.5, 3.0, np.float64(2.0), [3, -1], [2.0], "7"])
def test_rng_streams_reject_the_seeds_rng_stream_rejects(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer") as expected:
        states.rng_stream(seed, 1)
    with pytest.raises(ValueError) as got:
        states._rng_streams(seed, [1])
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("stream", [-1, 2**32])
def test_rng_streams_reject_stream_ids_beyond_one_word(stream):
    with pytest.raises(ValueError, match="stream ids"):
        states._rng_streams(7, [1, stream])


def test_validate_clean_state():
    d = states.validate_state(np.eye(4) / 4)
    assert d.hermiticity_defect == 0.0
    assert d.trace_defect == 0.0
    assert d.min_eigenvalue >= 0.0
    assert d.ok


def test_validate_trace_defect():
    m = np.eye(4) / 4
    m[0, 0] += 0.01
    d = states.validate_state(m)
    assert abs(d.trace_defect - 0.01) < 1e-12
    assert d.violations == ("trace",)


def test_validate_negative_eigenvalue():
    d = states.validate_state(np.diag([1.1, -0.1, 0.0, 0.0]))
    assert "positivity" in d.violations
    assert abs(d.min_eigenvalue + 0.1) < 1e-12


def test_density_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        states.DensityMatrix(np.diag([1.1, -0.1, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError):
        states.DensityMatrix(np.eye(4) / 4, (2, 3))


def test_density_matrix_coerces_and_scans_once(monkeypatch):
    calls = []
    real = states.as_complex_matrix
    monkeypatch.setattr(states, "as_complex_matrix", lambda m: calls.append(1) or real(m))
    states.DensityMatrix(np.eye(4) / 4, (2, 2))
    assert len(calls) == 1


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


def test_two_qubit_families_reject_other_dims():
    for family in ("bell", "werner"):
        with pytest.raises(ValueError, match="use isotropic"):
            states.make_state(family, dims=(3, 3), p=0.5)
    assert states.make_state("werner", dims=(2, 2), p=0.5).dims == (2, 2)
