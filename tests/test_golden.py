"""Seeded sampled outputs and CLI records pinned bit for bit.

``golden_sampled.json`` holds every float of a fixed set of seeded runs as
``float.hex`` (complex entries as a [real, imag] pair), so a change that
moves a last bit, or turns a Python float into a numpy scalar, fails here.
The file was recorded before the sampled path lost its per-call rebuilds
and must not move under refactors.

``golden_cli.json`` holds the ``--out`` record of a fixed set of CLI
commands, less the ``versions`` block; the test compares the serialized
text, so a float's last digit or an int turned float fails here too.

A change that alters these outputs on purpose re-records both files with

    PYTHONPATH=src python tests/test_golden.py

and states the change in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from entmoment import __version__, protocols, sampling, spa, states
from entmoment.cli import main

GOLDEN = Path(__file__).with_name("golden_sampled.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")
SEED = 20260
SHOT_LEVELS = (100, 10**6)


def _two_qubit_states():
    return {"werner-0.8": states.werner_state(0.8),
            "random-mixed": states.random_mixed_state((2, 2), states.rng_stream(SEED, 0))}


def _qutrit_states():
    return {"isotropic-0.6": states.isotropic_state(3, 0.6),
            "random-mixed": states.random_mixed_state((3, 3), states.rng_stream(SEED, 1))}


def encode(x):
    """Floats as hex strings; numpy scalars keep their type name."""
    if type(x) is float:
        return x.hex()
    if isinstance(x, (np.floating, np.complexfloating)):
        return [type(x).__name__, encode(x.item())]
    if type(x) is complex:
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, np.ndarray):
        return [str(x.dtype), [encode(v) for v in x.ravel().tolist()]]
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if x is None or type(x) in (int, str, bool):
        return x
    raise TypeError(f"no golden encoding for {type(x).__name__}")


def ladder(state, shots):
    run = sampling.run_concurrence_protocol(state, shots=shots, seed=SEED, mode="sampled")
    return {"moments": run.moments, "lambdas": run.breakdown.lambdas,
            "C": run.breakdown.concurrence, "E_f": run.breakdown.ef, "flags": run.flags,
            "successes": [r.successes for r in run.samples],
            "p_plus": [r.target_mean for r in run.samples]}


def tomography(state, shots, mode="sampled"):
    run = sampling.run_tomography_baseline(state, shots=shots, seed=SEED, mode=mode)
    return {"expectations": run.expectations, "rho_hat": run.rho_hat.matrix,
            "C": run.breakdown.concurrence, "lambdas": run.breakdown.lambdas}


def spectrum(state, shots):
    run = sampling.run_spectrum_protocol(state, shots=shots, seed=SEED, mode="sampled")
    est = run.estimate
    return {"channel": est.channel_eigenvalues, "pt": est.report.pt_eigenvalues,
            "E_c": est.report.ec, "flags": run.flags,
            "successes": [r.successes for r in run.samples],
            "target_mean": [r.target_mean for r in run.samples]}


def two_stage(state):
    res = protocols.two_stage_protocol(state)
    stage = res.stage_two
    return {"verdict": res.verdict, "min_channel": res.min_channel_eigenvalue,
            "min_pt": res.min_pt_eigenvalue_estimate,
            "gamma_C": None if stage is None else stage.concurrence_estimate}


def float_moments(state):
    # the float ladder route: the direct cyclic traces, and each read back off its group channel output
    return {"exact_moments": spa.ladder_power_sums(state),
            "channel_moments": tuple(spa.moment_observable_spec(out.k).moment(out.shift_trace())
                                     for out in spa.group_channel_outputs(state)),
            "p_plus": [sampling.moment_success_probability(state, k) for k in (1, 2, 3, 4)]}


def cases():
    """(name, thunk) for every pinned run."""
    out = []
    for name, st in _two_qubit_states().items():
        for shots in SHOT_LEVELS:
            out.append((f"ladder/{name}/{shots}", lambda st=st, n=shots: ladder(st, n)))
            out.append((f"tomography/{name}/{shots}", lambda st=st, n=shots: tomography(st, n)))
            out.append((f"spectrum/d2/{name}/{shots}", lambda st=st, n=shots: spectrum(st, n)))
        # ideal mode keeps the exact expectations, whose last bits a draw hides
        out.append((f"tomography-ideal/{name}", lambda st=st: tomography(st, 1, "ideal")))
        out.append((f"two-stage/{name}", lambda st=st: two_stage(st)))
        out.append((f"float-moments/{name}", lambda st=st: float_moments(st)))
    for name, st in _qutrit_states().items():
        for shots in SHOT_LEVELS:
            out.append((f"spectrum/d3/{name}/{shots}", lambda st=st, n=shots: spectrum(st, n)))
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,thunk", CASES, ids=[name for name, _ in CASES])
def test_sampled_output_is_bit_identical(golden, name, thunk):
    got = json.loads(json.dumps(encode(thunk())))
    for key, want in golden[name].items():
        assert got[key] == want, f"{name}: {key} moved"
    assert sorted(got) == sorted(golden[name])


def test_pauli_table_is_read_only():
    pairs = list(zip(sampling._PAULI_LABELS, sampling._PAULI_OPS))
    assert [label for label, _ in pairs][:3] == ["IX", "IY", "IZ"]
    for _, op in pairs:
        assert op.dtype == complex and op.shape == (4, 4)
        with pytest.raises(ValueError):
            op[0, 0] = 2.0


#: CLI commands whose --out record is pinned
CLI_CASES = {
    "exact/bell": ["exact", "--family", "bell"],
    "exact/werner-0.6": ["exact", "--family", "werner", "--p", "0.6"],
    "exact/random-mixed-3x3": ["exact", "--family", "random-mixed", "--dims", "3", "3"],
    "protocol-concurrence/ideal": ["protocol", "concurrence", "--family", "random-mixed", "--mode", "ideal"],
    "protocol-concurrence/sampled": ["protocol", "concurrence", "--family", "werner", "--p", "0.8",
                                     "--mode", "sampled", "--shots", "10000", "--seed", "3"],
    "protocol-negativity/ideal": ["protocol", "negativity", "--family", "random-mixed", "--dims", "3", "3",
                                  "--mode", "ideal"],
    "protocol-negativity/sampled": ["protocol", "negativity", "--family", "isotropic", "--p", "0.6",
                                    "--dims", "3", "3", "--mode", "sampled", "--shots", "10000", "--seed", "3"],
    "protocol-two-stage/werner-0.2": ["protocol", "two-stage", "--family", "werner", "--p", "0.2"],
    "protocol-two-stage/bell": ["protocol", "two-stage", "--family", "bell"],
    "resources/d3": ["resources", "--d", "3"],
    "selftest/31415": ["selftest", "--seed", "31415"],
}


def cli_record(argv) -> dict:
    """The --out record of one CLI run, less its versions block."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        record = json.loads(out.read_text())
    assert code == 0, f"{argv} exited {code}"
    assert sorted(record) == ["command", "config", "results", "versions"]
    assert record["versions"] == {"entmoment": __version__, "numpy": np.__version__}
    del record["versions"]
    return record


def _text(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def golden_cli():
    return json.loads(GOLDEN_CLI.read_text())


def test_golden_cli_covers_every_case(golden_cli):
    assert sorted(golden_cli) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_record_is_byte_identical(golden_cli, name):
    assert _text(cli_record(CLI_CASES[name])) == _text(golden_cli[name])


if __name__ == "__main__":
    record = {name: encode(thunk()) for name, thunk in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases to {GOLDEN}", file=sys.stderr)
    cli = {name: cli_record(argv) for name, argv in CLI_CASES.items()}
    GOLDEN_CLI.write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cli)} CLI records to {GOLDEN_CLI}", file=sys.stderr)
