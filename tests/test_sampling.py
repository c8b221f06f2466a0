"""Finite-shot estimation: exactness, unbiasedness, error scaling, baseline."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from entmoment import inversion, measures, protocols, sampling, spa, states
from entmoment.spa import moment_observable_spec


def test_bell_k1_success_probability():
    # p+ = (1 + 17/65)/2 = 41/65
    p_plus = sampling.moment_success_probability(states.bell_state(), 1)
    assert abs(p_plus - 41 / 65) < 1e-12


def test_maximally_mixed_k2_success_probability():
    # shift trace (4*16 + 1/64)/4097 collapses to 1/64, so p+ = 65/128
    p_plus = sampling.moment_success_probability(states.werner_state(0.0), 2)
    assert abs(p_plus - 65 / 128) < 1e-15


def test_sample_moment_povm_counts_and_accounting():
    record, _ = sampling.sample_moment_povm(states.bell_state(), 2, 1000, states.rng_stream(9, 0))
    assert record.shots == 1000
    assert 0 <= record.successes <= 1000
    assert moment_observable_spec(2).copies * record.shots == 4000


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
    assert a.moments == b.moments
    assert a.breakdown == b.breakdown
    assert [r.successes for r in a.samples] == [r.successes for r in b.samples]
    c = sampling.run_concurrence_protocol(st, shots=5000, seed=78, mode="sampled")
    assert a.moments != c.moments


def test_moment_streams_are_independent():
    st = states.bell_state()
    run = sampling.run_concurrence_protocol(st, shots=10000, seed=3, mode="sampled")
    fractions = [r.successes / r.shots for r in run.samples]
    assert len(set(fractions)) == 4  # distinct streams, distinct draws


def test_sampled_runs_draw_on_consecutive_streams_from_one_and_leave_stream_zero(monkeypatch):
    # stream 0 of a seed builds the CLI's random states; no sampled run may draw on it
    seed = 3
    state = states.random_mixed_state((2, 2), states.rng_stream(seed, 0))
    calls = []

    def spy(seed_, streams):
        calls.append((list(streams), states._rng_streams(seed_, streams)))
        return calls[-1][1]

    monkeypatch.setattr(sampling, "_rng_streams", spy)
    runs = {
        "ladder": (lambda: sampling.run_concurrence_protocol(state, shots=100, seed=seed), 1, 4),
        "spectrum d 2": (lambda: sampling.run_spectrum_protocol(state, shots=100, seed=seed), 2, 3),
        "spectrum d 3": (lambda: sampling.run_spectrum_protocol(
            states.random_mixed_state((3, 3), states.rng_stream(seed, 0)), shots=100, seed=seed), 2, 8),
        "tomography": (lambda: sampling.run_tomography_baseline(state, shots=100, seed=seed), 1, 15),
    }
    stream_zero = states.rng_stream(seed, 0).bit_generator.state
    for name, (run, first, n) in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, name
        ids, rngs = calls[0]
        assert ids == list(range(first, first + n)) and first >= 1, name
        if name == "tomography":
            assert all(rng.bit_generator.state != stream_zero for rng in rngs)


def test_every_draw_goes_through_the_one_binary_run(monkeypatch):
    # p+ -> count -> sampled mean has one owner, shared by the batched draw and sample_moment_povm
    state = states.random_mixed_state((2, 2), states.rng_stream(4, 0))
    calls = []
    real = sampling._binary_run

    def spy(mean, shots, rng):
        calls.append(mean)
        return real(mean, shots, rng)

    monkeypatch.setattr(sampling, "_binary_run", spy)
    sampling.run_concurrence_protocol(state, shots=100, seed=4)
    assert calls == spa._ladder_means(state)
    calls.clear()
    sampling.sample_moment_povm(state, 3, 100, states.rng_stream(4, 3))
    assert calls == [spa._ladder_means(state)[2]]


def test_unbiased_linear_stage_k1():
    # empirical mean of p-hat_1 within 5 standard errors of p_1 = 1
    bell = states.bell_state()
    n, reps = 10**5, 100
    p_plus = sampling.moment_success_probability(bell, 1)
    estimates = [
        sampling.sample_moment_povm(bell, 1, n, states.rng_stream(601, r))[1]
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
        sampling.sample_moment_povm(bell, k, n, states.rng_stream(602 + k, r))[1]
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
    assert len(run.samples) == len(run.moments) == 4
    for k, (r, moment) in enumerate(zip(run.samples, run.moments), start=1):
        spec = moment_observable_spec(k)
        rebuilt = spec.amplification * (2.0 * r.successes / r.shots - 1.0) - spec.offset
        assert rebuilt == moment
    assert run.copies_consumed == 2000 * (2 + 4 + 6 + 8)


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
    rho = state.matrix
    expectations = {}
    rebuilt = np.eye(4, dtype=complex)
    for idx, (label, op) in enumerate(zip(sampling._PAULI_LABELS, sampling._PAULI_OPS)):
        value = float(np.trace(rho @ op).real)
        if mode == "sampled":
            _, value = sampling._binary_run(value, shots, states.rng_stream(seed, stream=idx + 1))
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
    states.DensityMatrix(got.rho_hat.matrix, (2, 2))
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

# whole floats and Fractions follow the one integer rule too
BAD_SHOTS = [0, -5, 2.5, float("nan"), float("inf"), 2**63, 1e6, np.float64(1e6), Fraction(10), True, "10"]
SHOTS_RULE = r"^shots must be 1\.\.9223372036854775807, got "


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_concurrence_protocol_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match=SHOTS_RULE + re.escape(repr(shots))):
        sampling.run_concurrence_protocol(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_spectrum_protocol_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match=SHOTS_RULE):
        sampling.run_spectrum_protocol(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_tomography_baseline_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match=SHOTS_RULE):
        sampling.run_tomography_baseline(states.werner_state(0.8), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_bad_shots_rejected_where_nothing_is_drawn(shots):
    # d = 1: the channel has no order n >= 2 to draw, the count is still checked
    with pytest.raises(ValueError, match=SHOTS_RULE):
        sampling.run_spectrum_protocol(states.DensityMatrix(np.array([[1.0]]), (1, 1)), shots=shots, seed=3)


@pytest.mark.parametrize("shots", BAD_SHOTS)
def test_single_moment_entry_points_reject_bad_shots(shots):
    with pytest.raises(ValueError, match=SHOTS_RULE):
        sampling.moment_standard_error(1, 0.5, shots)
    with pytest.raises(ValueError, match=SHOTS_RULE):
        sampling.sample_moment_povm(states.bell_state(), 1, shots, states.rng_stream(3))


@pytest.mark.parametrize("call, message", [
    (lambda st: spa.group_channel_output(st, 5), r"^group index must be 1\.\.4, got 5$"),
    (lambda st: sampling.moment_success_probability(st, 0), r"^group index must be 1\.\.4, got 0$"),
    (lambda st: sampling.sample_moment_povm(st, 1, 0, states.rng_stream(4, 1)), SHOTS_RULE + "0$"),
])
@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_per_group_calls_check_before_the_chain_runs(monkeypatch, call, message, dims):
    # a bad group index or shot count reaches no product chain, on any state
    calls = []
    real = spa.ladder_power_sums

    def spy(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(spa, "ladder_power_sums", spy)
    with pytest.raises(ValueError, match=message):
        call(states.random_mixed_state(dims, states.rng_stream(4, 0)))
    assert calls == []


# ---------------------------------------------------------------- seeds

SAMPLED_RUNS = {
    "concurrence": lambda seed: sampling.run_concurrence_protocol(states.werner_state(0.8), shots=100, seed=seed),
    "spectrum": lambda seed: sampling.run_spectrum_protocol(states.isotropic_state(3, 0.5), shots=100, seed=seed),
    "tomography": lambda seed: sampling.run_tomography_baseline(states.werner_state(0.8), shots=100, seed=seed),
}


@pytest.mark.parametrize("seed", [None, -1, 1.5, 3.0, True, [3, 1], np.array([3])])
@pytest.mark.parametrize("entry", sorted(SAMPLED_RUNS))
def test_sampled_runs_reject_seeds_that_are_not_non_negative_integers(entry, seed):
    # None would otherwise draw OS entropy: two runs would differ
    with pytest.raises(ValueError, match=f"^seed must be an integer of at least 0, got {re.escape(repr(seed))}$"):
        SAMPLED_RUNS[entry](seed)


def test_largest_int64_shot_count_runs():
    run = sampling.run_concurrence_protocol(states.werner_state(0.8), shots=2**63 - 1, seed=3)
    assert all(r.shots == 2**63 - 1 for r in run.samples)


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


# ------------------------------------------------- derived once per state
# Each spy test builds its own state: a shared one may be derived already.

def test_ladder_means_are_derived_once_and_handed_out_as_new_lists(monkeypatch):
    chains = []
    real = spa.ladder_power_sums

    def spy(state):
        chains.append(state)
        return real(state)

    monkeypatch.setattr(spa, "ladder_power_sums", spy)
    state = states.random_mixed_state((2, 2), states.rng_stream(33, 0))
    outputs = [spa.group_channel_output(state, k) for k in (1, 2, 3, 4)]
    means = spa._ladder_means(state)
    want = list(means)
    assert want == [out.shift_trace() for out in outputs]
    means[0] = 99.0
    assert spa._ladder_means(state) == want
    for shots in (100, 10**4):  # the sampled runs and the per-group calls read the same means
        sampling.run_concurrence_protocol(state, shots=shots, seed=5)
    assert sampling.moment_success_probability(state, 2) == sampling.success_probability(want[1])
    sampling.sample_moment_povm(state, 3, 100, states.rng_stream(33, 3))
    assert len(chains) == 1
    spa._ladder_means(states.DensityMatrix(state.matrix, state.dims))
    assert len(chains) == 2


def test_the_spa_output_and_its_spectrum_are_derived_once_per_state(monkeypatch):
    # the ideal run's exact traces, the sampled run at every shot level and the two-stage
    # sign test read one SPA output, one eigvalsh of it and one power table of that spectrum
    builds, spectra, tables = [], [], []
    real_build, real_eigvalsh, real_table = spa.apply_spa_pt, np.linalg.eigvalsh, spa._power_table

    def build(state):
        builds.append(real_build(state))
        return builds[-1]

    def eigvalsh(a, *args, **kwargs):
        spectra.extend(out for out in builds if a is out.matrix)
        return real_eigvalsh(a, *args, **kwargs)

    def table(z, n):
        tables.append(n)
        return real_table(z, n)

    monkeypatch.setattr(spa, "apply_spa_pt", build)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(spa, "_power_table", table)
    state = states.random_mixed_state((2, 2), states.rng_stream(36, 0))
    sampling.run_spectrum_protocol(state, mode="ideal")
    runs = [sampling.run_spectrum_protocol(state, shots=shots, seed=6) for shots in (10**2, 10**4, 10**6)]
    stage_one = protocols.two_stage_protocol(state).min_channel_eigenvalue
    assert len(builds) == 1 and len(spectra) == 1 and tables == [4]
    lam = real_eigvalsh(real_build(state).matrix)
    assert stage_one == float(lam[0])
    psums = state._derived(spa._channel_moments)[1]
    assert psums == tuple(real_table(lam, 4).sum(axis=1).tolist()) and psums[0] == 4.0
    for run in runs:
        assert [r.target_mean for r in run.samples] == [sampling.success_probability(t) for t in psums[2:]]
    protocols.two_stage_protocol(states.DensityMatrix(state.matrix, state.dims))
    assert len(builds) == 2 and len(spectra) == 2 and len(tables) == 2
    spa.apply_spa_pt(state)  # called directly, it builds anew
    assert len(builds) == 3 and len(spectra) == 2 and len(tables) == 2


@pytest.fixture
def pauli_products(monkeypatch):
    """The matrix products taken with the Pauli table, one entry each."""
    products = []

    class CountedTable(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            inputs = [x.view(np.ndarray) if isinstance(x, CountedTable) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    monkeypatch.setattr(sampling, "_PAULI_OPS", sampling._PAULI_OPS.view(CountedTable))
    return products


def test_pauli_expectations_are_derived_once_and_a_run_cannot_change_them(pauli_products):
    products = pauli_products
    state = states.random_mixed_state((2, 2), states.rng_stream(34, 0))
    first = sampling.run_tomography_baseline(state, mode="ideal")
    want = dict(first.expectations)
    first.expectations["XX"] = 99.0
    again = sampling.run_tomography_baseline(state, mode="ideal")
    assert again.expectations == want and repr(again.breakdown) == repr(first.breakdown)
    sampled = sampling.run_tomography_baseline(state, shots=100, seed=3)
    assert [r.target_mean for r in sampling._draw(list(want.values()), 1, 100, 3)[0]] == [
        sampling.success_probability(v) for v in want.values()]
    assert sampled.expectations == dict(zip(want, sampling._draw(list(want.values()), 1, 100, 3)[1]))
    assert len(products) == 1
    sampling.run_tomography_baseline(states.DensityMatrix(state.matrix, state.dims), mode="ideal")
    assert len(products) == 2


def test_a_tomography_estimate_is_derived_once_like_any_state(pauli_products):
    # rho_hat is wrapped by DensityMatrix._valid, without the check
    run = sampling.run_tomography_baseline(states.random_mixed_state((2, 2), states.rng_stream(35, 0)),
                                           shots=1000, seed=4)
    first = sampling.run_tomography_baseline(run.rho_hat, mode="ideal")
    again = sampling.run_tomography_baseline(run.rho_hat, mode="ideal")
    assert again.expectations == first.expectations and repr(again.breakdown) == repr(first.breakdown)
    assert len(pauli_products) == 2  # the sampled run's state and rho_hat, once each


def test_a_refused_tomography_is_refused_on_every_call_and_not_kept():
    state = states.isotropic_state(3, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^the tomography baseline needs a two-qubit state"):
            sampling.run_tomography_baseline(state, mode="ideal")
    assert state.__dict__.get("_memo", {}) == {}


def test_refused_ladder_means_are_refused_on_every_call_and_not_kept():
    state = states.isotropic_state(3, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^the moment ladder needs a two-qubit state"):
            spa._ladder_means(state)
    assert state.__dict__.get("_memo", {}) == {}


def test_a_refused_group_output_is_refused_on_every_call_and_not_kept():
    state = states.isotropic_state(3, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^the moment ladder needs a two-qubit state"):
            spa.group_channel_output(state, 1)
    assert state.__dict__.get("_memo", {}) == {}


@pytest.mark.parametrize("call, operation", [
    (lambda st: sampling.run_spectrum_protocol(st, mode="ideal"), "the negativity protocol"),
    (lambda st: sampling.run_spectrum_protocol(st, shots=100, seed=3), "the negativity protocol"),
    (protocols.spectrum_protocol, "the closed-form SPA"),
])
def test_a_refused_spectrum_run_is_refused_on_every_call_and_not_kept(call, operation):
    state = states.random_mixed_state((2, 3), states.rng_stream(37, 0))
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^{operation} needs equal local dimensions, got state dims \(2, 3\)$"):
            call(state)
    assert state.__dict__.get("_memo", {}) == {}
