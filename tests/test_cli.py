"""Command-line surface: reports, file formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entmoment import measures, sampling, spa, states
from entmoment.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return main(args)


def test_exact_bell(capsys, tmp_path):
    out = tmp_path / "bell.json"
    assert run_cli(["exact", "--family", "bell", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "C        : 1.000000" in text
    report = json.loads(out.read_text())
    assert abs(report["results"]["concurrence"] - 1.0) < 1e-10
    assert abs(report["results"]["ef"] - 1.0) < 1e-10
    assert abs(report["results"]["ec"] - 1.0) < 1e-10
    assert report["config"]["family"] == "bell"
    assert "versions" in report


def test_exact_werner(capsys):
    assert run_cli(["exact", "--family", "werner", "--p", "0.6"]) == 0
    text = capsys.readouterr().out
    assert "C        : 0.400000" in text
    assert "0.485427" in text  # E_c = log2(1.4)


def test_exact_from_file_separable(tmp_path, capsys):
    st = states.product_pure_state((2, 2), states.rng_stream(1, 0))
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(st))
    assert run_cli(["exact", "--in", str(path)]) == 0
    text = capsys.readouterr().out
    assert "ppt" in text
    assert "C        : 0.000000" in text


def test_exact_from_file_qutrit(tmp_path, capsys):
    st = states.random_mixed_state((3, 3), states.rng_stream(2, 0))
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(st))
    assert run_cli(["exact", "--in", str(path)]) == 0
    text = capsys.readouterr().out
    assert "E_c" in text
    assert "C        :" not in text  # concurrence is two-qubit only


def test_exact_takes_the_pt_spectrum_once(tmp_path, monkeypatch):
    calls = []
    real = measures.herm_eigenvalues

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(measures, "herm_eigenvalues", counted)
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(states.random_mixed_state((3, 3), states.rng_stream(2, 0))))
    assert run_cli(["exact", "--in", str(path)]) == 0
    assert calls == [(9, 9)]


def test_in_records_the_files_dims(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(states.random_mixed_state((3, 3), states.rng_stream(2, 0))))
    out = tmp_path / "report.json"
    assert run_cli(["exact", "--in", str(path), "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["family"], config["p"], config["dims"]) == (None, None, [3, 3])


@pytest.mark.parametrize("extra,named", [
    (["--family", "werner", "--p", "0.3"], "--family, --p"),
    (["--p", "0.3"], "--p"),
    (["--dims", "3", "3"], "--dims"),
])
def test_in_rejects_the_state_options_it_would_ignore(tmp_path, capsys, extra, named):
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(states.random_mixed_state((3, 3), states.rng_stream(2, 0))))
    out = tmp_path / "report.json"
    for argv in (["exact"], ["protocol", "negativity"], ["protocol", "two-stage"]):
        assert run_cli([*argv, "--in", str(path), *extra, "--out", str(out)]) == 1
        assert f"error: --in takes the whole state from its file; drop {named}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["bell", "product-pure", "random-pure", "random-mixed"])
def test_p_is_rejected_where_the_family_ignores_it(capsys, family):
    assert run_cli(["exact", "--family", family, "--p", "0.3"]) == 1
    assert f"error: p is the mixing weight of werner and isotropic states; {family} takes none" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("dims", [["0", "0"], ["-1", "-1"]])
def test_local_dims_below_one_exit_one_with_one_error_line(capsys, dims):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning ahead of the check would raise here
        assert run_cli(["exact", "--family", "isotropic", "--dims", *dims, "--p", "0.5"]) == 1
    expected = f"error: dims must be [dimA, dimB], integers of at least 1, got {tuple(map(int, dims))}\n"
    assert capsys.readouterr().err == expected


def test_two_stage_refuses_a_qutrit_pair_with_one_error_line(capsys):
    assert run_cli(["protocol", "two-stage", "--dims", "3", "3", "--family", "isotropic", "--p", "0.5"]) == 1
    assert capsys.readouterr().err == "error: the two-stage scenario needs a two-qubit state, got state dims (3, 3)\n"


@pytest.mark.parametrize("mode", ["ideal", "sampled"])
def test_concurrence_refuses_a_qutrit_pair_in_its_own_name(capsys, mode):
    assert run_cli(["protocol", "concurrence", "--dims", "3", "3", "--family", "isotropic", "--p", "0.5",
                    "--mode", mode]) == 1
    assert capsys.readouterr().err == "error: the concurrence protocol needs a two-qubit state, got state dims (3, 3)\n"


def test_compare_refuses_a_qutrit_pair_in_its_own_name(capsys):
    assert run_cli(["compare", "--dims", "3", "3", "--family", "isotropic", "--p", "0.5", "--reps", "2"]) == 1
    assert capsys.readouterr().err == "error: compare needs a two-qubit state, got state dims (3, 3)\n"


@pytest.mark.parametrize("mode", ["ideal", "sampled"])
def test_negativity_refuses_unequal_local_dims_in_its_own_name(capsys, mode):
    assert run_cli(["protocol", "negativity", "--dims", "2", "3", "--family", "random-pure", "--mode", mode]) == 1
    expected = "error: the negativity protocol needs equal local dimensions, got state dims (2, 3)\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("diagonal, expected", [
    ([0.5, 0.5, 0.5, 0.5], "trace violated (hermiticity_defect=0.0, trace_defect=1.0, min_eigenvalue=0.5)"),
    ([1.1, -0.1, 0.0, 0.0], "positivity violated (hermiticity_defect=0.0, trace_defect=0.0, min_eigenvalue=-0.1)"),
], ids=["trace", "positivity"])
def test_exact_refuses_a_well_formed_file_that_is_not_a_state(tmp_path, capsys, diagonal, expected):
    grid = [[x if i == j else 0.0 for j in range(4)] for i, x in enumerate(diagonal)]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "re": grid, "im": [[0.0] * 4] * 4}))
    assert run_cli(["exact", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: not a density matrix: {expected}\n"


def test_seed_is_accepted_everywhere(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(states.state_to_json(states.bell_state()))
    assert run_cli(["exact", "--in", str(path), "--seed", "5"]) == 0
    assert run_cli(["exact", "--family", "bell", "--seed", "5"]) == 0


def test_exact_invalid_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2], "re": [[1.0]], "im": [[0.0]]}')
    assert run_cli(["exact", "--in", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_exact_refuses_a_non_finite_entry_with_one_error_line(tmp_path, capsys):
    # Python's json reads NaN; the state's own check refuses it, no backend exception
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [1, 2], "re": [[0.5, NaN], [0, 0.5]], "im": [[0, 0], [0, 0]]}')
    assert run_cli(["exact", "--in", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: matrix entries must be finite\n")


@pytest.mark.parametrize("argv", [
    ["exact", "--family", "bell", "--out", "{tmp}"],
    ["protocol", "concurrence", "--family", "bell", "--out", "{tmp}/missing/r.json"],
    ["compare", "--family", "bell", "--reps", "2", "--shots", "100", "--out", "{tmp}"],
    ["exact", "--in", "{tmp}/missing.json"],
], ids=["exact --out dir", "protocol --out missing dir", "compare --out dir", "exact --in missing file"])
def test_a_file_the_command_cannot_use_is_one_error_line(tmp_path, capsys, argv):
    # reading --in, writing a JSON record and writing a CSV sweep share main's refusal path;
    # an --out that cannot be written to is refused before the command computes or prints
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert str(tmp_path) in err and out == ""
    assert ("--out" in argv) == ("--out" in err)


def test_exact_missing_state_source(capsys):
    assert run_cli(["exact"]) == 1
    assert "either --family or --in" in capsys.readouterr().err


def test_protocol_concurrence_ideal(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = run_cli(
        ["protocol", "concurrence", "--family", "bell", "--mode", "ideal", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["results"]["concurrence"] - 1.0) < 1e-8
    groups = report["results"]["groups"]
    assert [g["amplification"] for g in groups] == [65, 4097, 262145, 16777217]
    assert [g["offset_applied"] for g in groups] == [16, 64, 256, 1024]
    assert [g["offset_d_cubed_variant"] for g in groups] == [64, 4096, 262144, 16777216]
    assert abs(groups[0]["p_plus"] - 41 / 65) < 1e-12


# an ideal run's moments are exact and its p+ rows come from them: no float chain at all
@pytest.mark.parametrize("mode_args, chains", [(["--mode", "ideal"], 0), (["--mode", "sampled", "--shots", "500"], 1)])
def test_protocol_concurrence_builds_the_ladder_chain_once(monkeypatch, mode_args, chains):
    calls = []
    real = spa.ladder_power_sums

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(spa, "ladder_power_sums", counted)
    assert run_cli(["protocol", "concurrence", "--family", "werner", "--p", "0.8", *mode_args]) == 0
    assert len(calls) == chains


@pytest.mark.parametrize("state_args", [["--family", "bell"], ["--family", "werner", "--p", "0.3"],
                                        ["--family", "random-mixed", "--seed", "5"],
                                        ["--family", "random-pure", "--seed", "8"],
                                        ["--family", "product-pure", "--seed", "2"]])
def test_ideal_concurrence_record_reads_p_plus_off_its_own_moments(tmp_path, state_args):
    out = tmp_path / "ideal.json"
    assert run_cli(["protocol", "concurrence", *state_args, "--mode", "ideal", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    expected = [sampling.success_probability(spa.moment_observable_spec(k).mean(p_k))
                for k, p_k in enumerate(results["moments"], 1)]
    assert [g["p_plus"] for g in results["groups"]] == expected


def test_protocol_negativity_ideal(capsys):
    assert run_cli(["protocol", "negativity", "--family", "werner", "--p", "0.8",
                    "--mode", "ideal"]) == 0
    text = capsys.readouterr().out
    assert f"{math.log2(1.7):.6f}" in text  # 0.765535


def test_protocol_two_stage_abandons(capsys, tmp_path):
    out = tmp_path / "two.json"
    assert run_cli(["protocol", "two-stage", "--family", "werner", "--p", "0.2",
                    "--out", str(out)]) == 0
    assert "second stage abandoned" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["results"]["verdict"] == "ppt"
    assert report["results"]["concurrence_estimate"] is None


def test_protocol_two_stage_quantifies(capsys):
    assert run_cli(["protocol", "two-stage", "--family", "werner", "--p", "0.8"]) == 0
    text = capsys.readouterr().out
    assert "0.700000" in text


def test_protocol_two_stage_rejects_sampled_mode(capsys, tmp_path):
    # any run option is refused, whatever its value: two-stage's parser declares none
    out = tmp_path / "two.json"
    for extra in (["--mode", "sampled", "--shots", "0"], ["--mode", "ideal"], ["--shots", "5"]):
        code = run_cli(["protocol", "two-stage", "--family", "bell", *extra, "--out", str(out)])
        assert code == 1
        assert f"error: unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not out.exists()
    # the other pipelines keep their defaults: ideal mode, 100000 shots on record
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["mode"], config["shots"]) == ("ideal", 100000)


def test_protocol_sampled_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["protocol", "concurrence", "--family", "werner", "--p", "0.9",
            "--mode", "sampled", "--shots", "2000", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_protocol_strict_escalates_on_flags(capsys):
    # k = 3, 4 moments at a tiny budget are pure noise: flags guaranteed
    code = run_cli(["protocol", "concurrence", "--family", "werner", "--p", "0.7",
                    "--mode", "sampled", "--shots", "50", "--seed", "1", "--strict"])
    assert code == 2
    assert "flags" in capsys.readouterr().err


def test_protocol_sampled_needs_positive_shots(capsys):
    code = run_cli(["protocol", "concurrence", "--family", "bell",
                    "--mode", "sampled", "--shots", "0"])
    assert code == 1


def test_compare_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["compare", "--family", "werner", "--p", "0.8",
                    "--shots", "500,2000", "--reps", "3", "--seed", "4", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(r["method"] for r in rows) == {"moments", "tomography"}
    moments_row = next(r for r in rows if r["method"] == "moments")
    assert (moments_row["r_p"], moments_row["r_c"], moments_row["r"]) == ("4", "20", "80")
    tomo_row = next(r for r in rows if r["method"] == "tomography")
    assert (tomo_row["r_p"], tomo_row["r_c"], tomo_row["r"]) == ("15", "15", "225")
    assert tomo_row["r_quoted"] == "165"
    assert moments_row["copies_consumed"] == "10000"  # 500 shots x 20 copies


def test_compare_needs_reps(capsys):
    assert run_cli(["compare", "--family", "bell", "--reps", "1"]) == 1


def test_run_options_per_subcommand(capsys):
    # protocol takes no --reps; compare takes no --strict and samples only, so
    # it has no --mode; two-stage draws nothing, so it has no --mode either
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--reps", "2"]) == 1
    assert run_cli(["compare", "--family", "bell", "--reps", "2", "--strict"]) == 1
    assert run_cli(["compare", "--family", "bell", "--mode", "ideal", "--reps", "2"]) == 1
    assert run_cli(["compare", "--family", "bell", "--mode", "sampled", "--reps", "2"]) == 1
    assert run_cli(["protocol", "two-stage", "--family", "bell", "--mode", "ideal"]) == 1
    assert capsys.readouterr().err.count("unrecognized arguments") == 5


def test_help_lists_only_the_options_a_command_reads(capsys):
    helps = {}
    for argv in (["protocol", "two-stage"], ["protocol", "negativity"], ["compare"]):
        assert run_cli([*argv, "--help"]) == 0
        helps[argv[-1]] = capsys.readouterr().out
    assert "--mode" not in helps["two-stage"] and "--shots" not in helps["two-stage"]
    assert "--mode {ideal,sampled}" in helps["negativity"] and "--shots SHOTS" in helps["negativity"]
    assert "--mode" not in helps["compare"] and "--shots SHOTS" in helps["compare"]


def test_resources_d2(capsys):
    assert run_cli(["resources", "--d", "2"]) == 0
    text = capsys.readouterr().out
    assert "concurrence-moments" in text
    lines = {line.split()[0]: line.split() for line in text.splitlines()[1:] if line.strip()}
    assert lines["concurrence-moments"][1:4] == ["4", "20", "80"]
    assert lines["spectrum"][1:4] == ["3", "9", "27"]
    assert lines["tomography"][1:4] == ["15", "15", "225"]
    assert lines["tomography"][4] == "165"


def test_resources_d3(capsys):
    assert run_cli(["resources", "--d", "3"]) == 0
    text = capsys.readouterr().out
    lines = {line.split()[0]: line.split() for line in text.splitlines()[1:] if line.strip()}
    assert lines["spectrum"][1:3] == ["8", "44"]
    assert lines["tomography"][1:3] == ["80", "80"]


def test_selftest_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["selftest", "--seed", "5", "--out", str(a)]) == 0
    assert run_cli(["selftest", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = capsys.readouterr().out
    assert text.count("pass") >= 6


def test_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "entmoment", "exact", "--family", "bell"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "C        : 1.000000" in proc.stdout


def test_d6_negativity_with_a_diverging_fit_exits_cleanly():
    # ROADMAP F18: the fit's lstsq raised here after overflow warnings and
    # LAPACK's own stderr lines; a non-finite candidate now stops before it
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["protocol", "negativity", "--family", "random-pure", "--dims", "6", "6", "--seed", "6"]
    proc = subprocess.run([sys.executable, "-m", "entmoment", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "E_c = 2.222500" in proc.stdout


def test_cli_import_leaves_selftest_and_csv_unloaded():
    # every command pays for what `import entmoment.cli` loads; selftest and
    # csv serve one command each and are imported inside it, and numpy.random
    # (10-17 ms) loads only where a command draws
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, numpy; bare = set(sys.modules); import entmoment.cli; "
            "print(sorted({m for m in set(sys.modules) - bare if m.startswith('numpy.random')}"
            " | ({'entmoment.selftest', 'csv'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _last_line_of_fresh_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("step", [
    "import entmoment",
    "import entmoment.cli",
    "import entmoment.cli as cli; cli.main(['resources'])",
    "import entmoment.cli as cli; cli.main(['resources', '--d', '3'])",
    "import entmoment.cli as cli; cli.main(['--help'])",
    "import entmoment.cli as cli; cli.main(['protocol', '--help'])",
    "import entmoment.cli as cli; cli.main(['protocol', 'concurrence', '--help'])",
    "import entmoment.cli as cli; cli.main(['exact', '--family', 'ghz'])",  # a usage error
], ids=["import-root", "import-cli", "resources", "resources-d3", "help", "protocol-help", "concurrence-help",
        "usage-error"])
def test_commands_that_compute_nothing_leave_numpy_unloaded(step):
    assert _last_line_of_fresh_python(f"import sys; {step}; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("argv, loaded", [(["resources", "--d", "3"], False), (["exact", "--family", "bell"], True)],
                         ids=["resources", "exact"])
def test_out_record_names_the_numpy_version_without_importing_it(argv, loaded, tmp_path):
    # `resources --out` computes without numpy and still records its version
    import numpy as np

    out = tmp_path / "record.json"
    code = (f"import sys, entmoment.cli as cli; cli.main({argv + ['--out', str(out)]!r}); "
            "loaded = 'numpy' in sys.modules; import numpy; print(loaded, numpy.__version__)")
    assert _last_line_of_fresh_python(code) == f"{loaded} {np.__version__}"
    assert json.loads(out.read_text())["versions"] == {"entmoment": "0.1.0", "numpy": np.__version__}


def test_out_record_imports_numpy_when_its_metadata_is_missing(tmp_path):
    # a numpy importable without dist-info (a source tree on the path) still
    # gets its version recorded, from the module, and the command exits 0
    import numpy as np

    out = tmp_path / "record.json"
    code = ("import importlib.metadata as md\n"
            "def missing(name): raise md.PackageNotFoundError(name)\n"
            "md.version = missing\n"
            "import entmoment.cli as cli\n"
            f"print(cli.main(['resources', '--d', '3', '--out', {str(out)!r}]))")
    assert _last_line_of_fresh_python(code) == "0"
    assert json.loads(out.read_text())["versions"] == {"entmoment": "0.1.0", "numpy": np.__version__}


def test_selftest_default_seed_is_recorded(tmp_path, capsys):
    out = tmp_path / "st.json"
    run_cli(["selftest", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == report["results"]["seed"] == 20240101


def test_exact_malformed_dims_exits_one(tmp_path, capsys):
    record = json.loads(states.state_to_json(states.bell_state()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**record, "dims": [None, 2]}))
    assert run_cli(["exact", "--in", str(bad)]) == 1
    assert "error: state record: 'dims'" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["exact", "--familly", "bell"]) == 1


def test_protocol_ideal_checks_shots(tmp_path, capsys):
    # ideal runs draw nothing, but the count they record must still be valid
    out = tmp_path / "x.json"
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--mode", "ideal",
                    "--shots", "-3", "--out", str(out)]) == 1
    assert run_cli(["protocol", "negativity", "--family", "bell", "--mode", "ideal", "--shots", "0"]) == 1
    assert capsys.readouterr().err.count("error: shots must be 1..9223372036854775807, got ") == 2
    assert not out.exists()
    # the parser reads one integer; compare's comma list is compare's own
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--shots", "100,200", "--out", str(out)]) == 1
    assert "argument --shots: invalid int value: '100,200'" in capsys.readouterr().err
    assert not out.exists()


def test_protocol_sampled_rejects_shots_beyond_int64(capsys):
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--mode", "sampled",
                    "--shots", str(2**63)]) == 1
    assert f"error: shots must be 1..9223372036854775807, got {2**63}" in capsys.readouterr().err


def test_compare_checks_every_shot_count_before_running(capsys, tmp_path, monkeypatch):
    runs = []
    for name in ("run_concurrence_protocol", "run_tomography_baseline"):
        monkeypatch.setattr(sampling, name, lambda *a, **k: runs.append(1))
    out = tmp_path / "sweep.csv"
    assert run_cli(["compare", "--family", "bell", "--shots", f"100,{2**63}", "--reps", "2",
                    "--out", str(out)]) == 1
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: shots must be 1..9223372036854775807, got {2**63}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("shots, message", [
    ("a,b", "--shots must be a comma list of integers, got 'a,b'"),
    (",", "compare needs at least one shot count"),
], ids=["not-integers", "empty"])
def test_compare_refuses_a_malformed_shot_list_with_one_error_line(capsys, shots, message):
    assert run_cli(["compare", "--family", "bell", "--reps", "2", "--shots", shots]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compare_reps_is_required(capsys):
    assert run_cli(["compare", "--family", "bell", "--shots", "100"]) == 1
    assert "the following arguments are required: --reps" in capsys.readouterr().err


def test_exact_has_no_explicit_family(capsys):
    assert run_cli(["exact", "--family", "explicit"]) == 1
    assert "invalid choice: 'explicit'" in capsys.readouterr().err
