"""Command-line surface: reports, file formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from entmoment import sampling, states
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


def test_exact_invalid_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2], "re": [[1.0]], "im": [[0.0]]}')
    assert run_cli(["exact", "--in", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


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
    # any run option is refused, whatever its value: two-stage reads none
    out = tmp_path / "two.json"
    for extra in (["--mode", "sampled", "--shots", "0"], ["--mode", "ideal"], ["--shots", "5"]):
        code = run_cli(["protocol", "two-stage", "--family", "bell", *extra, "--out", str(out)])
        assert code == 1
        assert "ideal mode only" in capsys.readouterr().err
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
    code = run_cli(["compare", "--family", "werner", "--p", "0.8", "--mode", "sampled",
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
    # protocol takes no --reps; compare takes no --strict and samples only
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--reps", "2"]) == 1
    assert run_cli(["compare", "--family", "bell", "--reps", "2", "--strict"]) == 1
    assert run_cli(["compare", "--family", "bell", "--mode", "ideal", "--reps", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 2
    assert "invalid choice: 'ideal'" in err


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
    assert capsys.readouterr().err.count("whole number of at least 1") == 2
    assert not out.exists()


def test_protocol_sampled_rejects_shots_beyond_int64(capsys):
    assert run_cli(["protocol", "concurrence", "--family", "bell", "--mode", "sampled",
                    "--shots", str(2**63)]) == 1
    assert "error: shots must be a whole number of at least 1 and below 2**63" in capsys.readouterr().err


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
    assert "error: shots must be a whole number of at least 1 and below 2**63" in captured.err
    assert not out.exists()


def test_compare_reps_is_required(capsys):
    assert run_cli(["compare", "--family", "bell", "--shots", "100"]) == 1
    assert "the following arguments are required: --reps" in capsys.readouterr().err


def test_exact_has_no_explicit_family(capsys):
    assert run_cli(["exact", "--family", "explicit"]) == 1
    assert "invalid choice: 'explicit'" in capsys.readouterr().err
