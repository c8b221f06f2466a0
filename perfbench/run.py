"""Benchmark of entmoment: four closed-loop workloads with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ideal-exact --seed 1 --seconds 8 --trace 0

The program is loaded from ``src/`` of the checkout; without it the command
exits 2 before printing a result.  BLAS is pinned to one thread here and in
every child process.  With ``--trace 0`` the last line of stdout carries the
bounded end-to-end metrics, given at reference host speed (hostspeed.py);
with ``--trace 1`` the per-layer metrics of a second, traced measurement
window plus the unbounded end-to-end metrics, as measured.  The lines before
it hold the environment, every metric in human form, the raw set-up and run
times with the host speed, any failing inputs and, when traced, the
per-layer table, the tracing overhead and the ROADMAP baseline cross-check.
Exits 1 when a correctness gate fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from child import run_child
from hostspeed import NEIGHBOURS, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 9
#: passes per window: the untraced window's second pass checks its first bit
#: for bit, and the traced window's only pass is checked against that first
MIN_PASSES = 2
MIN_PASSES_TRACED = 1
MIN_RUNS = 100  # so the p90 latency has at least ten samples beyond it

#: every end-to-end metric, printed by every run, with its unit
UNITS = {"setup_s": "s", "run_ms_mean": "ms", "runs_per_s": "1/s", "run_ms_p50": "ms", "run_ms_p90": "ms",
         "failed_frac": "ratio", "abs_err_p50": "abs", "within_tol_frac": "ratio", "silent_uniform_frac": "ratio"}
#: the ones that carry a regression bound, emitted untraced and given at
#: reference host speed (hostspeed.py); the rest are emitted by the traced
#: run, as measured: the four output metrics can read 0, and raw timings
#: follow the shared host's speed, which drifts by up to 40% within minutes
BOUNDED = ("setup_s", "run_ms_mean")
COUNTED = ("states.rng_stream", "linalg.exact_power_traces", "linalg.exact_product_power_traces",
           "linalg.herm_eigenvalues", "inversion.spectrum_from_power_sums", "spa.apply_spa_pt",
           "spa.GroupChannelOutput.shift_trace", "measures.concurrence_breakdown",
           "measures.negativity_report", "measures.gamma_concurrence_report")
SELF_TIMED_ONLY = ("protocols.exact_moment_fractions", "protocols.spectrum_power_sums",
                   "protocols.spectrum_from_channel_moments", "protocols.concurrence_from_moments",
                   "protocols.two_stage_protocol", "sampling.sample_moment_povm",
                   "sampling.run_concurrence_protocol", "sampling.run_spectrum_protocol",
                   "sampling.run_tomography_baseline")

#: ROADMAP open item 1 baseline rows: (label, [(figure in s, workload, source, context)])
#: source is a traced span name, or "cli:<label prefix>" for cold CLI latency
ROADMAP_ROWS = (
    ("`concurrence_breakdown` (exact, 2x2)",
     [(0.10e-3, "sampled-2q", "measures.concurrence_breakdown", "")]),
    ("`run_concurrence_protocol` ideal / sampled",
     [(10.9e-3, "ideal-exact", "sampling.run_concurrence_protocol", "ladder-ideal/"),
      (1.9e-3, "sampled-2q", "sampling.run_concurrence_protocol", "ladder/")]),
    ("`exact_moment_fractions` (4x4 Fraction matmul)",
     [(7.7e-3, "ideal-exact", "protocols.exact_moment_fractions", "")]),
    ("`spectrum_protocol` ideal, d = 2 / 3 / 4",
     [(7.5e-3, "ideal-exact", "protocols.spectrum_protocol", "spectrum-ideal/d2/random-mixed"),
      (211e-3, "ideal-exact", "protocols.spectrum_protocol", "spectrum-ideal/d3/random-mixed"),
      (8.3, "ideal-exact", "protocols.spectrum_protocol", "spectrum-ideal/d4/random-mixed")]),
    ("of which exact traces, d = 3 / 4",
     [(190e-3, "ideal-exact", "linalg.exact_power_traces", "spectrum-ideal/d3/random-mixed"),
      (2.8, "ideal-exact", "linalg.exact_power_traces", "spectrum-ideal/d4/random-mixed")]),
    ("of which inversion, D = 16",
     [(4.6, "ideal-exact", "inversion.spectrum_from_power_sums", "spectrum-ideal/d4/random-mixed")]),
    ("CLI cold: import / `exact` / `selftest`",
     [(0.24, "cli-cold", "cli:import", ""), (0.31, "cli-cold", "cli:cli/exact/", ""),
      (0.51, "cli-cold", "cli:cli/selftest", "")]),
)


@dataclass
class Window:
    """One measurement window: whole passes over the item list."""

    passes: list  # per pass: [(latency s, Outcome)] in item order
    pass_walls: list  # per pass: wall seconds, probes included, calibration left out
    probes: list  # cli-cold traced window: [(python -c pass s, import entmoment.cli s)]
    scaled: list  # every latency of ``latencies`` at reference host speed, s
    speed: float  # median host speed over the window, relative to reference

    @property
    def latencies(self):
        return [lat for rows in self.passes for lat, _ in rows]

    @property
    def runs_per_s(self) -> float:
        """Runs completed per wall second of the whole window.

        A mean, not a median over passes: the host's speed switches between
        regimes every few seconds, and only the mean averages their shares.
        """
        return len(self.latencies) / sum(self.pass_walls)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0, help="length of one measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few inputs per pass, for the smoke check")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed_setup(code: str, env: dict, reps: int) -> tuple[list, list]:
    """Set-up times of ``reps`` fresh children running ``code``: raw and
    at reference host speed, each with calibration samples around it."""
    calib = Calibrator()
    raw, marks = [], []
    for _ in range(reps):
        for _ in range(NEIGHBOURS):
            calib.sample()
        marks.append(calib.mark)
        raw.append(timed_python(code, env))
    for _ in range(NEIGHBOURS):
        calib.sample()
    return raw, [t * calib.scale(m, m) for t, m in zip(raw, marks)]


def timed_python(code: str, env: dict) -> float:
    start = time.perf_counter()
    exit_code, err = run_child([sys.executable, "-c", code], env, ROOT)
    elapsed = time.perf_counter() - start
    if exit_code != 0:
        raise RuntimeError(f"set-up child exited {exit_code}: {err.strip()[-500:]}")
    return elapsed


def describe_environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpu": cpu, "nproc": nproc, "git_sha": sha, "seed": seed}


def measure(items, runner, seconds, min_runs, in_process, tracer=None, probe=None) -> Window:
    """Whole passes in a closed loop until the window, ``MIN_PASSES``
    passes (``MIN_PASSES_TRACED`` traced) and ``min_runs`` runs are all
    complete.

    Untraced, host speed is sampled throughout (see hostspeed.py): during
    ``in_process`` runs by a timer whose time is taken out of the latency,
    otherwise between runs.  The traced window is not calibrated.
    """
    calib = Calibrator()
    passes, walls, probes, marks = [], [], [], []
    if tracer is None and in_process:
        calib.start_timer()
    try:
        deadline = time.perf_counter() + seconds
        min_passes = MIN_PASSES if tracer is None else MIN_PASSES_TRACED
        while len(passes) < min_passes or time.perf_counter() < deadline or len(passes) * len(items) < min_runs:
            start, calibrating = time.perf_counter(), calib.total_s
            if probe is not None:
                probes.append(probe())
            rows = []
            for item in items:
                if tracer is None and not in_process:
                    calib.maybe_sample()
                if tracer is not None:
                    tracer.context = item.label
                mark, before = calib.mark, calib.total_s
                t0 = time.perf_counter()
                outcome = runner(item)
                latency = time.perf_counter() - t0 - (calib.total_s - before)
                rows.append((latency, outcome))
                marks.append((mark, calib.mark))
            passes.append(rows)
            walls.append(time.perf_counter() - start - (calib.total_s - calibrating))
    finally:
        calib.stop_timer()
    if tracer is not None:
        return Window(passes, walls, probes, [], math.nan)
    for _ in range(NEIGHBOURS):
        calib.sample()
    latencies = [lat for rows in passes for lat, _ in rows]
    scaled = [lat * calib.scale(*m) for lat, m in zip(latencies, marks)]
    return Window(passes, walls, probes, scaled, calib.speed())


def make_runner(workload, wl, workdir: Path, env: dict):
    if workload == "ideal-exact":
        return wl.run_ideal
    if workload != "cli-cold":
        return wl.run_sampled
    out_path = workdir / "out.json"
    return lambda item: wl.run_cli(item, out_path, env, ROOT)


def guarded(runner, error_outcome):
    """A run that raises counts as failed; the loop goes on."""

    def run(item):
        try:
            return runner(item)
        except Exception as exc:  # noqa: BLE001 - every raise is a failed run, reported by input
            return error_outcome(f"raised {type(exc).__name__}: {exc}")

    return run


def failures(items, windows) -> list[tuple[str, str]]:
    """(input label, reason) per failed run, including digest mismatches
    against the first pass."""
    first = windows[0].passes[0]
    out = []
    for window in windows:
        for rows in window.passes:
            for item, (_, outcome), (_, ref) in zip(items, rows, first):
                if outcome.error is not None:
                    out.append((item.label, outcome.error))
                elif outcome.digest != ref.digest:
                    out.append((item.label, "estimate not bit-identical to the first pass"))
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times, window: Window) -> dict:
    """Bounded timings at reference host speed, the rest as measured."""
    lat, n = window.latencies, len(window.passes[0])
    # a median over passes: the odd burst of host noise that the scaling
    # misses lands in a few passes and is left out
    pass_means = [statistics.fmean(window.scaled[i:i + n]) for i in range(0, len(lat), n)]
    return {"setup_s": statistics.median(setup_times), "run_ms_mean": statistics.median(pass_means) * 1e3,
            "runs_per_s": window.runs_per_s, "run_ms_p50": statistics.median(lat) * 1e3,
            "run_ms_p90": _p90(lat) * 1e3}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def quality(first_pass, attempted: int, failed: int) -> dict:
    outcomes = [o for _, o in first_pass]
    errors = [abs(o.estimate - o.exact) for o in outcomes if math.isfinite(o.estimate) and math.isfinite(o.exact)]
    scored = [o.within_tol for o in outcomes if o.within_tol is not None]
    spectra = [o.silent_uniform for o in outcomes if o.silent_uniform is not None]
    return {"failed_frac": failed / attempted, "abs_err_p50": _median(errors),
            "within_tol_frac": sum(scored) / len(scored) if scored else 0.0,
            "silent_uniform_frac": sum(spectra) / len(spectra) if spectra else 0.0}


def per_layer(tracer, window: Window, untraced: Window, workload: str) -> dict:
    n_pass = len(window.passes)
    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (tracer.calls[name] / n_pass, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / n_pass, "s")
    calls = tracer.calls["inversion.spectrum_from_power_sums"]
    clean = tracer.clean["inversion.spectrum_from_power_sums"]
    out["inversion.spectrum_from_power_sums.clean_frac"] = (clean / calls if calls else 0.0, "ratio")
    for name in SELF_TIMED_ONLY:
        out[f"{name}.self_s"] = (tracer.self_s[name] / n_pass, "s")
    interpreter = _median([p for p, _ in window.probes])
    imported = _median([i for _, i in window.probes])
    command = _median(window.latencies) - imported if workload == "cli-cold" else 0.0
    out["cli.interpreter_s"] = (interpreter, "s")
    out["cli.import_s"] = (imported - interpreter if window.probes else 0.0, "s")
    out["cli.command_s"] = (command, "s")
    out["trace.overhead_runs_per_s"] = (untraced.runs_per_s - window.runs_per_s, "1/s")
    return out


def cross_check(workload, items, tracer, window: Window) -> list[str]:
    """ROADMAP baseline rows measured on this workload, marked when off by > 2x."""
    lines = []
    for label, cells in ROADMAP_ROWS:
        shown = []
        for figure, home, source, context in cells:
            if home != workload:
                shown.append("- (other workload)")
                continue
            if source == "cli:import":
                values = [i for _, i in window.probes]
            elif source.startswith("cli:"):
                prefix = source[4:]
                values = [lat for rows in window.passes for item, (lat, _) in zip(items, rows)
                          if item.label.startswith(prefix)]
            else:
                values = tracer.spans(source, context)
            if not values:
                shown.append(f"not run vs {_fmt_s(figure)}")
                continue
            got = statistics.median(values)
            ratio = got / figure
            mark = "  OFF >2x" if ratio > 2 or ratio < 0.5 else ""
            shown.append(f"{_fmt_s(got)} vs {_fmt_s(figure)} (x{ratio:.2f}, n={len(values)}){mark}")
        if any(not s.startswith("-") for s in shown):
            lines.append(f"  {label:<48} " + " / ".join(shown))
    return lines


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.3g} s" if seconds >= 0.1 else f"{seconds * 1e3:.3g} ms"


def bench(args, wl, workdir: Path) -> int:
    from tracer import Tracer

    env = child_env()
    print("env " + json.dumps(describe_environment(args.seed), sort_keys=True))
    tiny = args.size == "tiny"
    setup_raw, setup_times = timed_setup(wl.WARMUP[args.workload], env, 2 if tiny else SETUP_REPS)
    items = wl.make_items(args.workload, args.seed, tiny, workdir)
    runner = guarded(make_runner(args.workload, wl, workdir, env), lambda why: wl.Outcome("", error=why))
    if args.workload != "cli-cold":
        exec(wl.WARMUP[args.workload], {})
    min_runs = 0 if tiny else MIN_RUNS
    in_process = args.workload != "cli-cold"
    windows = [measure(items, runner, args.seconds, min_runs, in_process)]

    layers = tracer = None
    if args.trace:
        tracer = Tracer()
        probe = None
        if args.workload == "cli-cold":
            probe = lambda: (timed_python("pass", env), timed_python("import entmoment.cli", env))  # noqa: E731
        tracer.install()
        try:
            windows.append(measure(items, runner, args.seconds, min_runs, in_process, tracer, probe))
        finally:
            tracer.uninstall()
        layers = per_layer(tracer, windows[1], windows[0], args.workload)

    attempted = sum(len(w.latencies) for w in windows)
    failed_runs = failures(items, windows)
    e2e = end_to_end(setup_times, windows[0]) | quality(windows[0].passes[0], attempted, len(failed_runs))
    correct = not failed_runs

    w0 = windows[0]
    print(f"workload {args.workload} seed {args.seed}: {len(w0.passes)} passes of {len(items)} runs "
          f"in {sum(w0.pass_walls):.2f} s, {len(w0.latencies)} latency samples, set-up median of {len(setup_times)}")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:>14.6g} {UNITS[name]}{'  (at reference speed)' if name in BOUNDED else ''}")
    print(f"as measured: setup_s {statistics.median(setup_raw):.6g} s, run_ms_mean {statistics.fmean(w0.latencies) * 1e3:.6g} ms; "
          f"host speed {w0.speed:.3f} of reference")
    if failed_runs:
        print(f"FAILED {len(failed_runs)} of {attempted} runs:")
        for label, why in sorted(set(failed_runs)):
            print(f"  {label}: {why}")
    if args.trace:
        print(f"per layer, per pass of the traced window ({len(windows[1].passes)} passes):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
        print(f"tracing overhead: {windows[0].runs_per_s:.6g} runs/s untraced, "
              f"{windows[1].runs_per_s:.6g} traced")
        print("ROADMAP item 1 cross-check (measured vs ROADMAP, median per call):")
        for line in cross_check(args.workload, items, tracer, windows[1]):
            print(line)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        metrics.update({name: {"value": v, "unit": UNITS[name]} for name, v in e2e.items() if name not in BOUNDED})
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in BOUNDED}
    result = {"correct": correct, "attempted": attempted, "failed": len(failed_runs), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    os.environ.update(BLAS_THREADS)  # before numpy loads
    if not (SRC / "entmoment" / "__init__.py").is_file():
        print(f"error: no entmoment source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import entmoment

    if Path(entmoment.__file__).resolve().parent != SRC / "entmoment":
        print(f"error: entmoment loaded from {entmoment.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    args = parse_args(argv)
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        return bench(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still holds its own directory there


if __name__ == "__main__":
    sys.exit(main())
