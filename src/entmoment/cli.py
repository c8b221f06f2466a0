"""Command-line front end.

Subcommands: exact, protocol {concurrence|negativity|two-stage}, compare,
resources, selftest.  Human summaries go to stdout; --out writes the full
record as JSON (CSV for compare sweeps).  Exit codes: 0 success, 1
validation error, 2 numerical-flag escalation under --strict (and selftest
failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# numpy-free: each command imports what it computes with, so `resources`,
# --help and usage errors never load numpy
from . import FAMILIES, MODES, __version__, _whole


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for --strict only
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=FAMILIES, help="named state family")
    p.add_argument("--p", type=float, default=None, help="family mixing weight")
    p.add_argument("--dims", type=int, nargs=2, default=None, metavar=("DA", "DB"))
    p.add_argument("--in", dest="infile", type=Path, default=None, help="state record file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)


def _load_state(args):
    from . import states

    if args.infile is not None:
        given = [opt for opt in ("--family", "--p", "--dims") if getattr(args, opt[2:]) is not None]
        if given:
            raise ValueError(f"--in takes the whole state from its file; drop {', '.join(given)}")
        return states.state_from_json(args.infile.read_text())
    if args.family is None:
        raise ValueError("give either --family or --in FILE")
    rng = states.rng_stream(args.seed, stream=0)
    return states.make_state(args.family, dims=tuple(args.dims or (2, 2)), p=args.p, rng=rng)


def _state_config(args, state) -> dict:
    return {
        "family": args.family,
        "p": args.p,
        "dims": list(state.dims),
        "infile": str(args.infile) if args.infile else None,
        "seed": args.seed,
    }


def _emit(command: str, config: dict, results, out: Path | None):
    """Write the replayable record of one command to ``out``, if given."""
    if out is not None:
        numpy_version = None
        if "numpy" not in sys.modules:  # `resources` computes without numpy: the installed version, not an import
            from importlib import metadata

            try:
                numpy_version = metadata.version("numpy")
            except metadata.PackageNotFoundError:  # a numpy without dist-info, e.g. a source tree
                pass
        if numpy_version is None:
            import numpy as np

            numpy_version = np.__version__
        report = {
            "command": command,
            "config": config,
            "results": results,
            "versions": {"entmoment": __version__, "numpy": numpy_version},
        }
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")


def cmd_exact(args) -> int:
    from . import measures

    state = _load_state(args)
    neg = measures.negativity_report(state)
    verdict = neg.verdict
    results = {
        "dims": list(state.dims),
        **neg._asdict(),
        "ppt_verdict": verdict.verdict,
        "min_pt_eigenvalue": verdict.min_pt_eigenvalue,
    }
    print(f"state    : dims {state.dims}")
    print(f"PPT      : {verdict.verdict} (min PT eigenvalue {verdict.min_pt_eigenvalue:+.6f})")
    print(f"E_c      : {neg.ec:.6f}   negativity: {neg.negativity:.6f}")
    if state.dims == (2, 2):
        br = measures.concurrence_breakdown(state)
        results.update(br._asdict())
        print(f"C        : {br.concurrence:.6f}   E_f: {br.ef:.6f}")
        print("lambdas  : " + "  ".join(f"{x:.6f}" for x in br.lambdas))
    _emit("exact", _state_config(args, state), results, args.out)
    return 0


def _run_config(args):
    """The state, the checked --shots (recorded in both modes) and the config of a ladder or spectrum run."""
    from .sampling import _MAX_SHOTS

    state = _load_state(args)
    shots = _whole(args.shots, "shots", 1, _MAX_SHOTS)
    return state, shots, {**_state_config(args, state), "mode": args.mode, "shots": shots}


def _finish_protocol(args, config: dict, results: dict, flags) -> int:
    _emit(f"protocol {args.pipeline}", config, results, args.out)
    if args.strict and flags:
        print(f"numerical flags raised: {', '.join(flags)}", file=sys.stderr)
        return 2
    return 0


def cmd_concurrence(args) -> int:
    from . import measures, sampling, spa

    state, shots, config = _run_config(args)
    run = sampling.run_concurrence_protocol(state, shots=shots, seed=args.seed, mode=args.mode)
    exact = measures.concurrence_breakdown(state)
    results = {
        "mode": args.mode,
        "moments": list(run.moments),
        **run.breakdown._asdict(),
        "exact_concurrence": exact.concurrence,
        "exact_ef": exact.ef,
        "flags": list(run.flags),
        "copies_consumed": run.copies_consumed,
        "groups": [],
    }
    # p+ comes from the run itself: a sampled run's records hold it, an ideal run's moments give it
    for spec, p_k, rec in zip(spa._LADDER_SPECS, run.moments, run.samples or (None,) * 4):
        group = {
            "k": spec.k,
            "copies": spec.copies,
            "amplification": spec.amplification,
            "offset_applied": spec.offset,
            "offset_d_cubed_variant": spec.d_cubed_offset,
        }
        if rec is None:
            group["p_plus"] = sampling.success_probability(spec.mean(p_k))
        else:
            group.update(p_plus=rec.target_mean, successes=rec.successes, shots=rec.shots)
        results["groups"].append(group)
    results["offset_note"] = (
        "offsets are 4*d_k, fixed by the ladder identity mean(M_k) = p_k; "
        "the d_k^3 variant is listed for reference only"
    )
    print(f"concurrence protocol ({args.mode}): C = {run.breakdown.concurrence:.6f}  "
          f"E_f = {run.breakdown.ef:.6f}")
    print(f"exact reference            : C = {exact.concurrence:.6f}  E_f = {exact.ef:.6f}")
    return _finish_protocol(args, config, results, run.flags)


def cmd_negativity(args) -> int:
    from . import measures, sampling, spa

    state, shots, config = _run_config(args)
    run = sampling.run_spectrum_protocol(state, shots=shots, seed=args.seed, mode=args.mode)
    exact = measures.negativity_report(state)
    results = {
        "mode": args.mode,
        "pt_eigenvalues": list(run.estimate.report.pt_eigenvalues),
        "ec": run.estimate.report.ec,
        "negativity": run.estimate.report.negativity,
        "exact_ec": exact.ec,
        "exact_negativity": exact.negativity,
        "flags": list(run.flags),
        "shrink_factor": spa.spa_shrink(state.dims[0]),
    }
    if run.samples is not None:
        results["p_plus_per_order"] = {str(n): rec.target_mean for n, rec in enumerate(run.samples, start=2)}
    print(f"negativity protocol ({args.mode}): E_c = {run.estimate.report.ec:.6f}  (exact {exact.ec:.6f})")
    return _finish_protocol(args, config, results, run.flags)


def cmd_two_stage(args) -> int:
    from . import protocols

    state = _load_state(args)
    res = protocols.two_stage_protocol(state)
    flags = res.stage_two.flags if res.stage_two is not None else ()
    results = {
        "verdict": res.verdict,
        "min_channel_eigenvalue": res.min_channel_eigenvalue,
        "min_pt_eigenvalue_estimate": res.min_pt_eigenvalue_estimate,
        "message": res.message,
        "concurrence_estimate": res.stage_two.concurrence_estimate if res.stage_two is not None else None,
        "flags": list(flags),
    }
    if res.entangled:
        print(f"two-stage: NPT, gamma stage estimate C = {res.stage_two.concurrence_estimate:.6f}")
    else:
        print(f"two-stage: ppt, {res.message}")
    return _finish_protocol(args, _state_config(args, state), results, flags)


def cmd_compare(args) -> int:
    import numpy as np

    from . import measures, sampling
    from .ledger import QUOTED_TOMOGRAPHY_R, resource_ledger

    _whole(args.reps, "--reps", 2)
    state = _load_state(args)
    measures._require_two_qubit(state, "compare")
    exact = measures.concurrence_breakdown(state)
    try:
        counts = [int(s) for s in args.shots.split(",") if s]
    except ValueError as exc:
        raise ValueError(f"--shots must be a comma list of integers, got {args.shots!r}") from exc
    shots_list = [_whole(s, "shots", 1, sampling._MAX_SHOTS) for s in counts]  # all checked before any run
    if not shots_list:
        raise ValueError("compare needs at least one shot count")

    methods = (
        ("moments", sampling.run_concurrence_protocol, resource_ledger("concurrence-moments"), ""),
        ("tomography", sampling.run_tomography_baseline, resource_ledger("tomography", 2), QUOTED_TOMOGRAPHY_R),
    )
    rows = []
    for shots in shots_list:
        for method, run_fn, ledger, quoted in methods:
            err_c, err_ef = [], []
            for rep in range(args.reps):
                run = run_fn(state, shots=shots, seed=args.seed + rep)
                err_c.append(abs(run.breakdown.concurrence - exact.concurrence))
                err_ef.append(abs(run.breakdown.ef - exact.ef))
            rows.append(
                {
                    "method": method,
                    "shots": shots,
                    "median_abs_error_c": float(np.median(err_c)),
                    "median_abs_error_ef": float(np.median(err_ef)),
                    "copies_consumed": run.copies_consumed,
                    "r_p": ledger.r_p,
                    "r_c": ledger.r_c,
                    "r": ledger.r,
                    "r_quoted": quoted,
                }
            )

    for row in rows:
        print("  ".join(f"{v}" for v in row.values()))
    if args.out is not None:
        import csv

        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"sweep written to {args.out}")
    return 0


def cmd_resources(args) -> int:
    from .ledger import QUOTED_TOMOGRAPHY_R, resource_ledger

    d = args.d
    names = ("concurrence-moments", "spectrum", "tomography") if d == 2 else ("spectrum", "tomography")
    ledgers = [resource_ledger(name, d) for name in names]
    quoted = {"tomography": QUOTED_TOMOGRAPHY_R} if d == 2 else {}
    print(f"{'protocol':<22}{'r_p':>6}{'r_c':>7}{'r':>9}  quoted")
    for led in ledgers:
        print(f"{led.protocol:<22}{led.r_p:>6}{led.r_c:>7}{led.r:>9}  {quoted.get(led.protocol, '')}")
    results = [{"protocol": led.protocol, "r_p": led.r_p, "r_c": led.r_c, "r": led.r,
                "r_quoted": quoted.get(led.protocol)} for led in ledgers]
    _emit("resources", {"d": d}, results, args.out)
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # only this command pays for its import

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    report = selftest.run_selftest(seed)
    for module in report["modules"]:
        status = "pass" if module["passed"] else "FAIL"
        print(f"{module['module']:<12} {status}  ({len(module['checks'])} checks)")
        if not module["passed"]:
            for check in module["checks"]:
                if not check["passed"]:
                    print(f"    FAIL {check['name']}: {check['detail']}")
    _emit("selftest", {"seed": seed}, report, args.out)
    return 0 if report["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entmoment", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact measures of one state")
    _add_state_args(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("protocol", help="run an estimation pipeline")
    pipelines = p.add_subparsers(dest="pipeline", required=True)
    for name, fn in (("concurrence", cmd_concurrence), ("negativity", cmd_negativity), ("two-stage", cmd_two_stage)):
        p = pipelines.add_parser(name)
        _add_state_args(p)
        if name != "two-stage":  # its stages are exact and draw nothing: no mode, no shots
            p.add_argument("--mode", choices=MODES, default="ideal")
            p.add_argument("--shots", type=int, default=100000, help="shots per observable")
        p.add_argument("--strict", action="store_true", help="exit 2 when estimates carry numerical flags")
        p.set_defaults(fn=fn)

    p = sub.add_parser("compare", help="sampled moments vs tomography error sweep (CSV)")
    _add_state_args(p)
    p.add_argument("--shots", default="100000", help="comma list of shots per observable")
    p.add_argument("--reps", type=int, required=True, help="repetitions per shot count, at least 2")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("resources", help="resource ledgers for dimension d")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser("selftest", help="run the module invariant suite")
    p.add_argument("--seed", type=int, default=None)  # None: selftest.DEFAULT_SEED
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage exits
        return int(exc.code or 0)
    try:
        if args.out is not None and (args.out.is_dir() or not args.out.parent.is_dir()):
            raise ValueError(f"--out {args.out} is not a file in an existing directory")
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a refused argument, or a file --in or --out cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
