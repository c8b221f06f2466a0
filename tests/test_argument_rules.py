"""One owner per argument rule: each entry point refuses a malformed argument
with a ValueError that names it, instead of truncating it, reading a bool as
a number, or leaking a raw TypeError.

Integer arguments (local dims, group indices, seeds, shot counts, stream
ids, trace orders, the SPA maps' d) go through the package root's one
integer check; real ones (the mixing weight, p+, the binary entropy and E_f
arguments, power sums) through its one real-number check; the two-qubit
requirement through ``measures._require_two_qubit``; the equal-local-dims requirement
through ``spa._require_equal_dims``; the run mode through the one check the
three ``run_*`` entry points share.  Stream ids of -1 and 2**32, and
malformed seeds, are in ``tests/test_states.py``, for both stream routes;
malformed shot counts in ``tests/test_sampling.py``.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from entmoment import _local_dims, _real, _whole, inversion, linalg, measures, protocols, sampling, spa, states

QUTRIT_PAIR = states.isotropic_state(3, 0.5)
TWO_QUBIT_MESSAGE = r"needs a two-qubit state, got state dims \(3, 3\)"
LADDER_MESSAGE = "^the concurrence protocol " + TWO_QUBIT_MESSAGE  # the pipeline, not an inner step
MOMENT_LADDER_MESSAGE = "^the moment ladder " + TWO_QUBIT_MESSAGE  # the ladder, not its spin flip
RECTANGULAR_PAIR = states.random_mixed_state((2, 3), states.rng_stream(7))

REFUSALS = {
    "partial_transpose dims (2.9, 2.1)": (lambda: linalg.partial_transpose(np.eye(4) / 4, (2.9, 2.1)), "dims"),
    "partial_transpose dims (True, 4)": (lambda: linalg.partial_transpose(np.eye(4) / 4, (True, 4)), "dims"),
    "cyclic_shift_matrix n 2.5": (lambda: linalg.cyclic_shift_matrix(2.5, 2), "n must be an integer"),
    "exact_power_traces n_max 2.5": (lambda: linalg.exact_power_traces(np.eye(2) / 2, 2.5), "n_max"),
    "exact_power_traces n_max True": (lambda: linalg.exact_power_traces(np.eye(2) / 2, True), "n_max"),
    "spa_threshold_by_choi dims (2.5, 2)": (lambda: spa.spa_threshold_by_choi((2.5, 2)), "dims"),
    "spa_threshold_by_choi dims (True, 2)": (lambda: spa.spa_threshold_by_choi((True, 2)), "dims"),
    "random_unitary dim 2.5": (lambda: states.random_unitary(2.5, states.rng_stream(7)), "dim must be an integer"),
    "rng_stream stream 1.5": (lambda: states.rng_stream(7, 1.5), "stream ids"),
    "rng_stream stream True": (lambda: states.rng_stream(7, True), "stream ids"),
    "_rng_streams stream 1.5": (lambda: states._rng_streams(7, [0, 1.5]), "stream ids"),
    "_rng_streams stream True": (lambda: states._rng_streams(7, [0, True]), "stream ids"),
    "moment_observable_spec k 1.0": (lambda: spa.moment_observable_spec(1.0), "group index"),
    "moment_observable_spec k True": (lambda: spa.moment_observable_spec(True), "group index"),
    "moment_standard_error k 1.0": (lambda: sampling.moment_standard_error(1.0, 0.5, 100), "group index"),
    "moment_standard_error k True": (lambda: sampling.moment_standard_error(True, 0.5, 100), "group index"),
    "sample_moment_povm k 1.0": (
        lambda: sampling.sample_moment_povm(states.bell_state(), 1.0, 100, states.rng_stream(7)), "group index"),
    "sample_moment_povm k True": (
        lambda: sampling.sample_moment_povm(states.bell_state(), True, 100, states.rng_stream(7)), "group index"),
    "run_tomography_baseline 3x3 state": (
        lambda: sampling.run_tomography_baseline(QUTRIT_PAIR, mode="ideal"), TWO_QUBIT_MESSAGE),
    "two_stage_protocol 3x3 state": (lambda: protocols.two_stage_protocol(QUTRIT_PAIR), TWO_QUBIT_MESSAGE),
    "run_concurrence_protocol ideal 3x3 state": (
        lambda: sampling.run_concurrence_protocol(QUTRIT_PAIR, mode="ideal"), LADDER_MESSAGE),
    "run_concurrence_protocol sampled 3x3 state": (
        lambda: sampling.run_concurrence_protocol(QUTRIT_PAIR, mode="sampled"), LADDER_MESSAGE),
    "concurrence_breakdown 3x3 state": (lambda: measures.concurrence_breakdown(QUTRIT_PAIR), TWO_QUBIT_MESSAGE),
    "ladder_power_sums 3x3 state": (lambda: spa.ladder_power_sums(QUTRIT_PAIR), MOMENT_LADDER_MESSAGE),
    "exact_moment_fractions 3x3 state": (
        lambda: protocols.exact_moment_fractions(QUTRIT_PAIR), MOMENT_LADDER_MESSAGE),
    "group_channel_outputs 3x3 state": (lambda: spa.group_channel_outputs(QUTRIT_PAIR), MOMENT_LADDER_MESSAGE),
    "group_channel_output 3x3 state": (lambda: spa.group_channel_output(QUTRIT_PAIR, 1), MOMENT_LADDER_MESSAGE),
    "moment_success_probability 3x3 state": (
        lambda: sampling.moment_success_probability(QUTRIT_PAIR, 4), MOMENT_LADDER_MESSAGE),
    "sample_moment_povm 3x3 state": (
        lambda: sampling.sample_moment_povm(QUTRIT_PAIR, 2, 100, states.rng_stream(7)), MOMENT_LADDER_MESSAGE),
    "group_channel_output 3x3 state k 7": (
        lambda: spa.group_channel_output(QUTRIT_PAIR, 7), r"^group index must be 1\.\.4, got 7$"),
    "run_concurrence_protocol mode": (
        lambda: sampling.run_concurrence_protocol(states.bell_state(), mode="noisy"), "mode must be one of"),
    "run_spectrum_protocol mode": (
        lambda: sampling.run_spectrum_protocol(states.bell_state(), mode="noisy"), "mode must be one of"),
    "run_tomography_baseline mode": (
        lambda: sampling.run_tomography_baseline(states.bell_state(), mode="noisy"), "mode must be one of"),
    "shots '10'": (lambda: sampling.run_concurrence_protocol(states.bell_state(), shots="10"), "shots must be"),
    "shots True": (lambda: sampling.run_concurrence_protocol(states.bell_state(), shots=True), "shots must be"),
    "power sum 1+0j": (lambda: inversion.spectrum_from_power_sums([1 + 0j, 0.5]), "power sum at index 0"),
    "power sum '1'": (lambda: inversion.spectrum_from_power_sums(["1", 0.5]), "power sum at index 0"),
    "power sum None": (lambda: inversion.spectrum_from_power_sums([1.0, None]), "power sum at index 1"),
    "power sums [True, True]": (
        lambda: inversion.spectrum_from_power_sums([True, True]), "^power sum at index 0 must be a finite real"),
    "werner_state p True": (lambda: states.werner_state(True), "^the mixing weight p must be"),
    "werner_state p '0.5'": (lambda: states.werner_state("0.5"), "^the mixing weight p must be"),
    "werner_state p None": (lambda: states.werner_state(None), "^the mixing weight p must be"),
    "isotropic_state p True": (lambda: states.isotropic_state(3, True), "^the mixing weight p must be"),
    "isotropic_state p '0.5'": (lambda: states.isotropic_state(3, "0.5"), "^the mixing weight p must be"),
    "isotropic_state p None": (lambda: states.isotropic_state(3, None), "^the mixing weight p must be"),
    "moment_standard_error p_plus True": (lambda: sampling.moment_standard_error(1, True, 100), "^p_plus must be"),
    "binary_entropy True": (lambda: measures.binary_entropy(True), "^the binary entropy argument must be"),
    "ef_from_concurrence nan": (lambda: measures.ef_from_concurrence(math.nan), "^the concurrence must be"),
    "spa_shrink d True": (lambda: spa.spa_shrink(True), "^d must be an integer"),
    "inverse_affine d 2.5": (lambda: spa.inverse_affine(0.1, 2.5), "^d must be an integer"),
    "affine_map d 0": (lambda: spa.affine_map(0.5, 0), "^d must be an integer"),
    "spectrum_from_channel_moments no sums": (
        lambda: protocols.spectrum_from_channel_moments([]), r"^expected d \* d power sums for some d >= 1, got 0$"),
    "spectrum_from_channel_moments 2 sums": (
        lambda: protocols.spectrum_from_channel_moments([1.0, 0.5]), r"^expected d \* d power sums .*, got 2$"),
    "spectrum_from_channel_moments 5 sums": (
        lambda: protocols.spectrum_from_channel_moments([1.0, 0.5, 0.3, 0.2, 0.1]), r"^expected d \* d .*, got 5$"),
    "run_spectrum_protocol 2x3 state": (
        lambda: sampling.run_spectrum_protocol(RECTANGULAR_PAIR, mode="ideal"),
        r"^the negativity protocol needs equal local dimensions, got state dims \(2, 3\)$"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_entry_point_refuses_with_a_value_error_naming_its_argument(case):
    call, named = REFUSALS[case]
    with pytest.raises(ValueError, match=named):
        call()


@pytest.mark.parametrize("value", [0, 5, 2.0, True, np.float64(3.0), "3", None])
def test_integer_check_states_the_rule_and_the_value(value):
    with pytest.raises(ValueError, match=rf"^group index must be 1\.\.4, got {re.escape(repr(value))}$"):
        _whole(value, "group index", 1, 4)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint32(3), np.uint64(3)])
def test_integer_check_returns_python_ints(value):
    assert type(_whole(value, "group index", 1, 4)) is int and _whole(value, "group index", 1, 4) == 3
    assert _local_dims([value, value]) == (3, 3) and all(type(d) is int for d in _local_dims([value, value]))


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 1 + 0j, math.nan, -math.inf, 1.5, -1, 10**400,
                                   Fraction(3, 2)])
def test_real_check_states_the_rule_and_the_value(value):
    expected = rf"^p_plus must be a real number in \[0, 1\], got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=expected):
        _real(value, "p_plus", 0, 1)


@pytest.mark.parametrize("value", [True, "1", math.nan, math.inf, np.float64(-math.inf)])
def test_unbounded_real_check_refuses_non_finite_and_non_real(value):
    expected = rf"^the concurrence must be a finite real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=expected):
        _real(value, "the concurrence")


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(0.25), np.float32(0.75), np.int64(1), Fraction(1, 3), 5e-324])
def test_real_check_returns_its_argument_unchanged(value):
    assert _real(value, "p_plus", 0, 1) is value
    assert _real(value, "the concurrence") is value


def test_real_check_compares_a_huge_int_without_converting_it():
    assert _real(10**400, "power sum at index 0") == 10**400  # float(10**400) would overflow
