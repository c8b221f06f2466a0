"""Finite-shot estimation: exactness, unbiasedness, error scaling, baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from entmoment import inversion, measures, sampling, states


def test_bell_k1_success_probability():
    # p+ = (1 + 17/65)/2 = 41/65
    p_plus = sampling.moment_success_probability(states.bell_state(), 1)
    assert abs(p_plus - 41 / 65) < 1e-12


def test_maximally_mixed_k2_success_probability():
    # shift trace (4*16 + 1/64)/4097 collapses to 1/64, so p+ = 65/128
    p_plus = sampling.moment_success_probability(states.werner_state(0.0), 2)
    assert abs(p_plus - 65 / 128) < 1e-15


def test_sample_moment_povm_counts_and_accounting():
    s = sampling.sample_moment_povm(states.bell_state(), 2, 1000, states.rng_stream(9, 0))
    assert s.record.shots == 1000
    assert 0 <= s.record.successes <= 1000
    assert s.copies_consumed == 4000


def test_sample_moment_povm_needs_shots():
    with pytest.raises(ValueError):
        sampling.sample_moment_povm(states.bell_state(), 1, 0, states.rng_stream(9, 0))


def test_plug_in_identity_ideal_mode():
    rng = states.rng_stream(600, 0)
    for _ in range(20):
        st = states.random_mixed_state((2, 2), rng)
        run = sampling.run_concurrence_protocol(st, mode="ideal")
        exact = measures.concurrence_breakdown(st)
        assert abs(run.breakdown.concurrence - exact.concurrence) < 1e-8
        assert abs(run.breakdown.ef - exact.ef) < 1e-8
        assert run.samples is None
        assert run.copies_consumed == 0


def test_bell_ideal_run():
    run = sampling.run_concurrence_protocol(states.bell_state(), mode="ideal")
    assert abs(run.breakdown.concurrence - 1.0) < 1e-8


def test_sampled_run_determinism():
    st = states.werner_state(0.7)
    a = sampling.run_concurrence_protocol(st, shots=5000, seed=77, mode="sampled")
    b = sampling.run_concurrence_protocol(st, shots=5000, seed=77, mode="sampled")
    assert a.moments.p == b.moments.p
    assert a.breakdown == b.breakdown
    assert [s.record.successes for s in a.samples] == [s.record.successes for s in b.samples]
    c = sampling.run_concurrence_protocol(st, shots=5000, seed=78, mode="sampled")
    assert a.moments.p != c.moments.p


def test_moment_streams_are_independent():
    st = states.bell_state()
    run = sampling.run_concurrence_protocol(st, shots=10000, seed=3, mode="sampled")
    fractions = [s.record.successes / s.record.shots for s in run.samples]
    assert len(set(fractions)) == 4  # distinct streams, distinct draws


def test_unbiased_linear_stage_k1():
    # empirical mean of p-hat_1 within 5 standard errors of p_1 = 1
    bell = states.bell_state()
    n, reps = 10**5, 100
    p_plus = sampling.moment_success_probability(bell, 1)
    estimates = [
        sampling.sample_moment_povm(bell, 1, n, states.rng_stream(601, r)).moment_estimate
        for r in range(reps)
    ]
    se_mean = sampling.moment_standard_error(1, p_plus, n) / math.sqrt(reps)
    assert abs(float(np.mean(estimates)) - 1.0) <= 5 * se_mean


@pytest.mark.parametrize("k", [1, 2])
def test_error_scaling_matches_propagated_formula(k):
    bell = states.bell_state()
    n, reps = 10**5, 300
    p_plus = sampling.moment_success_probability(bell, k)
    estimates = [
        sampling.sample_moment_povm(bell, k, n, states.rng_stream(602 + k, r)).moment_estimate
        for r in range(reps)
    ]
    expected = sampling.moment_standard_error(k, p_plus, n)
    observed = float(np.std(estimates, ddof=1))
    assert abs(observed / expected - 1.0) < 0.2


def test_k4_amplification_dwarfs_desk_budgets():
    # at N = 1e6 the k=4 moment estimate carries O(10) noise: reported as a
    # finding, the fourth moment is out of reach at this budget
    bell = states.bell_state()
    p_plus = sampling.moment_success_probability(bell, 4)
    se = sampling.moment_standard_error(4, p_plus, 10**6)
    assert se > 1.0


@pytest.mark.parametrize("p_plus, shots, match", [
    (0.5, 0, "shots"), (0.5, -4, "shots"), (0.5, 2.5, "shots"), (0.5, 2**63, "shots"),
    (1.5, 100, "p_plus"), (-0.1, 100, "p_plus"), (math.nan, 100, "p_plus"),
])
def test_moment_standard_error_rejects_bad_input(p_plus, shots, match):
    with pytest.raises(ValueError, match=match):
        sampling.moment_standard_error(1, p_plus, shots)


def test_success_probability_clamps_float_dust():
    assert sampling.success_probability(0.25) == 0.625
    assert sampling.success_probability(1.0 + 1e-15) == 1.0
    assert sampling.success_probability(-1.0 - 1e-15) == 0.0


def test_moment_estimates_recompute_from_records():
    st = states.werner_state(0.9)
    run = sampling.run_concurrence_protocol(st, shots=2000, seed=5, mode="sampled")
    from entmoment.spa import moment_observable_spec

    for s in run.samples:
        spec = moment_observable_spec(s.k)
        rebuilt = spec.amplification * (2.0 * s.record.successes / s.record.shots - 1.0) - spec.offset
        assert rebuilt == s.moment_estimate


# ------------------------------------------------------------- spectrum runs

def test_spectrum_run_ideal_matches_exact():
    rng = states.rng_stream(603, 0)
    for _ in range(10):
        st = states.random_mixed_state((2, 2), rng)
        run = sampling.run_spectrum_protocol(st, mode="ideal")
        exact = measures.negativity_report(st)
        assert abs(run.estimate.report.ec - exact.ec) < 1e-6


def test_spectrum_run_sampled_converges():
    # median |Ec_hat - Ec| decreases monotonically over N = 1e3, 1e5, 1e7;
    # demonstrated on the bell state, whose extreme PT spectrum responds at
    # these budgets (clustered channel spectra need far larger N)
    st = states.bell_state()
    exact = measures.negativity_report(st).ec
    medians = []
    for shots in (10**3, 10**5, 10**7):
        errs = [
            abs(
                sampling.run_spectrum_protocol(st, shots=shots, seed=s, mode="sampled").estimate.report.ec
                - exact
            )
            for s in range(100)
        ]
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_spectrum_run_sampled_determinism():
    st = states.werner_state(0.8)
    a = sampling.run_spectrum_protocol(st, shots=4000, seed=11, mode="sampled")
    b = sampling.run_spectrum_protocol(st, shots=4000, seed=11, mode="sampled")
    assert a.estimate.report == b.estimate.report


# ---------------------------------------------------------------- tomography

def test_tomography_exact_mode_reproduces_state():
    rng = states.rng_stream(605, 0)
    for _ in range(10):
        st = states.random_mixed_state((2, 2), rng)
        run = sampling.run_tomography_baseline(st, mode="ideal")
        assert np.max(np.abs(run.rho_hat.matrix - st.matrix)) < 1e-12
        assert abs(run.breakdown.concurrence - measures.concurrence(st)) < 1e-9


# Reference: the per-observable loop that the batched product and trace
# replaced, as it stood.

def reference_tomography_baseline(state, shots, seed, mode):
    if mode == "sampled":
        shots = sampling._shot_count(shots)
    rho = state.matrix
    expectations = {}
    rebuilt = np.eye(4, dtype=complex)
    for idx, (label, op) in enumerate(zip(sampling._PAULI_LABELS, sampling._PAULI_OPS)):
        value = float(np.trace(rho @ op).real)
        if mode == "sampled":
            _, value = sampling._binary_run(value, shots, states.rng_stream(seed, stream=idx))
        expectations[label] = value
        rebuilt = rebuilt + value * op
    rebuilt /= 4.0
    w, v = np.linalg.eigh((rebuilt + rebuilt.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    w /= np.sum(w)
    rho_hat = states.DensityMatrix((v * w) @ v.conj().T, (2, 2))
    return sampling.TomographyRun(expectations, shots, rho_hat, measures.concurrence_breakdown(rho_hat))


@strategies.composite
def two_qubit_states(draw):
    """Random states, and bell and werner, whose matrices hold exact zeros."""
    family = draw(strategies.sampled_from(states.FAMILIES))
    p = draw(strategies.floats(0, 1)) if family in ("werner", "isotropic") else None
    return states.make_state(family, p=p, rng=states.rng_stream(draw(strategies.integers(0, 2**32)), 0))


@settings(max_examples=150, deadline=None)
@given(two_qubit_states(), strategies.sampled_from(sampling.MODES),
       strategies.sampled_from([1, 100, 10**4, 10**6, 2**63 - 1]), strategies.integers(0, 2**32))
def test_batched_tomography_matches_per_observable_reference(state, mode, shots, seed):
    got = sampling.run_tomography_baseline(state, shots=shots, seed=seed, mode=mode)
    expected = reference_tomography_baseline(state, shots, seed, mode)
    assert list(got.expectations) == list(expected.expectations)
    assert all(type(v) is float for v in got.expectations.values())
    # repr tells -0.0 from 0.0 and shows every float to the last bit
    assert repr(got.expectations) == repr(expected.expectations)
    assert got.rho_hat.matrix.tobytes() == expected.rho_hat.matrix.tobytes()
    # rho_hat skips the constructor's check: it must pass it all the same
    assert states.validate_state(got.rho_hat.matrix).ok
    assert repr(got.breakdown) == repr(expected.breakdown)
    # an ideal run draws nothing (the loop kept the count it was given)
    assert got.shots == (expected.shots if mode == "sampled" else 0)


def test_tomography_has_fifteen_observables():
    labels = list(sampling._PAULI_LABELS)
    assert len(labels) == 15
    assert "II" not in labels
    assert len(set(labels)) == 15


def test_tomography_bell_sampled_error_reported():
    errs = [
        abs(
            sampling.run_tomography_baseline(
                states.bell_state(), shots=10**4, seed=s, mode="sampled"
            ).breakdown.concurrence
            - 1.0
        )
        for s in range(100)
    ]
    assert float(np.median(errs)) < 0.05


def test_tomography_maximally_mixed_mostly_zero():
    hits = 0
    for s in range(100):
        run = sampling.run_tomography_baseline(
            states.werner_state(0.0), shots=10**4, seed=s, mode="sampled"
        )
        hits += run.breakdown.concurrence == 0.0
    assert hits >= 99


def test_tomography_copies_consumed():
    run = sampling.run_tomography_baseline(states.bell_state(), shots=500, seed=1, mode="sampled")
    assert run.copies_consumed == 15 * 500


@pytest.mark.parametrize("shots", [-5, 2.5, 10**6])
def test_tomography_ideal_run_consumes_no_copies(shots):
    # as the ladder's ideal run: nothing is drawn, whatever count is passed
    run = sampling.run_tomography_baseline(states.werner_state(0.8), shots=shots, mode="ideal")
    assert run.shots == run.copies_consumed == 0


def test_tomography_rejects_non_two_qubit():
    with pytest.raises(ValueError):
        sampling.run_tomography_baseline(
            states.random_mixed_state((3, 3), states.rng_stream(0, 0))
        )


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        sampling.run_concurrence_protocol(states.bell_state(), mode="noisy")


# ---------------------------------------------------------------- shot counts

BAD_SHOTS = [0, -5, 2.5, float("nan"), float("inf"), 2**63]


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_concurrence_protocol_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="whole number of at least 1"):
        sampling.run_concurrence_protocol(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_spectrum_protocol_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="whole number of at least 1"):
        sampling.run_spectrum_protocol(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_tomography_baseline_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="whole number of at least 1"):
        sampling.run_tomography_baseline(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_bad_shots_rejected_where_nothing_is_drawn(shots):
    # d = 1: the channel has no order n >= 2 to draw, the count is still checked
    with pytest.raises(ValueError, match="whole number of at least 1"):
        sampling.run_spectrum_protocol(states.DensityMatrix(np.array([[1.0]]), (1, 1)), shots=shots, seed=3)


# ---------------------------------------------------------------- seeds

SAMPLED_RUNS = {
    "concurrence": lambda seed: sampling.run_concurrence_protocol(states.werner_state(0.8), shots=100, seed=seed),
    "spectrum": lambda seed: sampling.run_spectrum_protocol(states.isotropic_state(3, 0.5), shots=100, seed=seed),
    "tomography": lambda seed: sampling.run_tomography_baseline(states.werner_state(0.8), shots=100, seed=seed),
}


@pytest.mark.parametrize("seed", [None, -1, 1.5])
@pytest.mark.parametrize("entry", sorted(SAMPLED_RUNS))
def test_sampled_runs_reject_seeds_that_are_not_non_negative_integers(entry, seed):
    # None would otherwise draw OS entropy: two runs would differ
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer.*got {seed!r}"):
        SAMPLED_RUNS[entry](seed)


def test_integral_float_shots_match_int_shots():
    st = states.werner_state(0.8)
    a, b = (sampling.run_concurrence_protocol(st, shots=n, seed=3) for n in (1e6, 10**6))
    assert a.moments == b.moments and a.breakdown == b.breakdown
    a, b = (sampling.run_spectrum_protocol(st, shots=n, seed=3) for n in (1e6, 10**6))
    assert a.estimate == b.estimate
    a, b = (sampling.run_tomography_baseline(st, shots=n, seed=3) for n in (1e6, 10**6))
    assert a.expectations == b.expectations and a.breakdown == b.breakdown


def test_largest_int64_shot_count_runs():
    run = sampling.run_concurrence_protocol(states.werner_state(0.8), shots=2**63 - 1, seed=3)
    assert all(s.record.shots == 2**63 - 1 for s in run.samples)


def test_ideal_mode_ignores_shot_count():
    st = states.werner_state(0.8)
    assert sampling.run_concurrence_protocol(st, shots=0, mode="ideal").samples is None
    assert sampling.run_spectrum_protocol(st, shots=0, mode="ideal").samples is None


@settings(max_examples=200, deadline=None)
@given(strategies.data())
def test_one_power_table_matches_per_order_sums(data):
    dim = data.draw(strategies.integers(1, 25))
    values = strategies.floats(-1, 1, allow_subnormal=False)
    lam = np.array(data.draw(strategies.lists(values, min_size=dim, max_size=dim)))
    expected = np.array([np.sum(lam**n) for n in range(2, dim + 1)])
    assert inversion._power_table(lam, dim).sum(axis=1)[2:].tobytes() == expected.tobytes()
