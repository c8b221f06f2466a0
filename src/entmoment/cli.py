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

import numpy as np

from . import __version__, measures, protocols, sampling, spa, states

DEFAULT_SHOTS = "100000"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for --strict only
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=states.FAMILIES, help="named state family")
    p.add_argument("--p", type=float, default=None, help="family mixing weight")
    p.add_argument("--dims", type=int, nargs=2, default=(2, 2), metavar=("DA", "DB"))
    p.add_argument("--in", dest="infile", type=Path, default=None, help="state record file")
    p.add_argument("--seed", type=int, default=0)


def _add_run_args(p: argparse.ArgumentParser, modes: tuple[str, ...]):
    p.add_argument("--mode", choices=modes, default=modes[0])
    p.add_argument("--shots", type=str, default=DEFAULT_SHOTS, help="shots per observable (compare: comma list)")
    p.add_argument("--out", type=Path, default=None)


def _load_state(args) -> states.DensityMatrix:
    if args.infile is not None:
        try:
            text = args.infile.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read state file {args.infile}: {exc}") from exc
        return states.state_from_json(text)
    if args.family is None:
        raise ValueError("give either --family or --in FILE")
    rng = states.rng_stream(args.seed, stream=0)
    return states.make_state(args.family, dims=tuple(args.dims), p=args.p, rng=rng)


def _state_config(args) -> dict:
    return {
        "family": args.family,
        "p": args.p,
        "dims": list(args.dims),
        "infile": str(args.infile) if args.infile else None,
        "seed": args.seed,
    }


def _emit(command: str, config: dict, results, out: Path | None):
    """Write the replayable record of one command to ``out``, if given."""
    if out is not None:
        report = {
            "command": command,
            "config": config,
            "results": results,
            "versions": {"entmoment": __version__, "numpy": np.__version__},
        }
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")


def cmd_exact(args) -> int:
    state = _load_state(args)
    neg = measures.negativity_report(state)
    verdict = measures.ppt_verdict(state)
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
    _emit("exact", _state_config(args), results, args.out)
    return 0


def _shots_single(text: str) -> int:
    """The one --shots count, checked in every mode so a record never holds a bad one."""
    try:
        shots = int(text)
    except ValueError as exc:
        raise ValueError(f"--shots must be a single integer here, got {text!r}") from exc
    return sampling._shot_count(shots)


def cmd_protocol(args) -> int:
    if args.pipeline == "two-stage" and (args.mode, args.shots) != (None, None):
        raise ValueError("protocol two-stage takes no --mode or --shots; it runs in ideal mode only")
    mode = args.mode or "ideal"
    state = _load_state(args)
    shots = _shots_single(DEFAULT_SHOTS if args.shots is None else args.shots)
    config = {**_state_config(args), "mode": mode, "shots": shots}

    if args.pipeline == "concurrence":
        run = sampling.run_concurrence_protocol(state, shots=shots, seed=args.seed, mode=mode)
        exact = measures.concurrence_breakdown(state)
        flags = run.flags
        results = {
            "mode": mode,
            "moments": list(run.moments.p),
            **run.breakdown._asdict(),
            "exact_concurrence": exact.concurrence,
            "exact_ef": exact.ef,
            "flags": list(flags),
            "copies_consumed": run.copies_consumed,
            "groups": [],
        }
        for out in spa.group_channel_outputs(state):
            spec = spa.moment_observable_spec(out.k)
            group = {
                "k": out.k,
                "copies": spec.copies,
                "amplification": spec.amplification,
                "offset_applied": spec.offset,
                "offset_d_cubed_variant": spec.d_cubed_offset,
                "p_plus": sampling.success_probability(out.shift_trace()),
            }
            if run.samples is not None:
                s = run.samples[out.k - 1]
                group.update({"successes": s.record.successes, "shots": s.record.shots})
            results["groups"].append(group)
        results["offset_note"] = (
            "offsets are 4*d_k, fixed by the ladder identity mean(M_k) = p_k; "
            "the d_k^3 variant is listed for reference only"
        )
        print(f"concurrence protocol ({mode}): C = {run.breakdown.concurrence:.6f}  "
              f"E_f = {run.breakdown.ef:.6f}")
        print(f"exact reference            : C = {exact.concurrence:.6f}  E_f = {exact.ef:.6f}")

    elif args.pipeline == "negativity":
        run = sampling.run_spectrum_protocol(state, shots=shots, seed=args.seed, mode=mode)
        exact = measures.negativity_report(state)
        flags = run.flags
        results = {
            "mode": mode,
            "pt_eigenvalues": list(run.estimate.report.pt_eigenvalues),
            "ec": run.estimate.report.ec,
            "negativity": run.estimate.report.negativity,
            "exact_ec": exact.ec,
            "exact_negativity": exact.negativity,
            "flags": list(flags),
            "shrink_factor": spa.spa_shrink(state.dims[0]),
        }
        if run.samples is not None:
            results["p_plus_per_order"] = {
                str(n): rec.target_mean for n, rec in enumerate(run.samples, start=2)
            }
        print(f"negativity protocol ({mode}): E_c = {run.estimate.report.ec:.6f}  "
              f"(exact {exact.ec:.6f})")

    else:  # two-stage
        res = protocols.two_stage_protocol(state)
        config = _state_config(args)
        flags = res.stage_two.flags if res.stage_two is not None else ()
        results = {
            "verdict": res.verdict,
            "min_channel_eigenvalue": res.min_channel_eigenvalue,
            "min_pt_eigenvalue_estimate": res.min_pt_eigenvalue_estimate,
            "message": res.message,
            "concurrence_estimate": (
                res.stage_two.concurrence_estimate if res.stage_two is not None else None
            ),
            "flags": list(flags),
        }
        if res.entangled:
            print(f"two-stage: NPT, gamma stage estimate C = "
                  f"{res.stage_two.concurrence_estimate:.6f}")
        else:
            print(f"two-stage: ppt, {res.message}")

    _emit(f"protocol {args.pipeline}", config, results, args.out)
    if args.strict and flags:
        print(f"numerical flags raised: {', '.join(flags)}", file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    if args.reps < 2:
        raise ValueError("compare needs --reps >= 2")
    state = _load_state(args)
    exact = measures.concurrence_breakdown(state)
    try:
        counts = [int(s) for s in str(args.shots).split(",") if s]
    except ValueError as exc:
        raise ValueError(f"--shots must be a comma list of integers, got {args.shots!r}") from exc
    shots_list = [sampling._shot_count(s) for s in counts]  # all checked before any run
    if not shots_list:
        raise ValueError("compare needs at least one shot count")

    methods = (
        ("moments", sampling.run_concurrence_protocol, protocols.resource_ledger("concurrence-moments"), ""),
        ("tomography", sampling.run_tomography_baseline, protocols.resource_ledger("tomography", 2),
         protocols.QUOTED_TOMOGRAPHY_R),
    )
    rows = []
    for shots in shots_list:
        for method, run_fn, ledger, quoted in methods:
            err_c, err_ef = [], []
            for rep in range(args.reps):
                run = run_fn(state, shots=shots, seed=args.seed + rep, mode=args.mode)
                err_c.append(abs(run.breakdown.concurrence - exact.concurrence))
                err_ef.append(abs(run.breakdown.ef - exact.ef))
            rows.append(
                {
                    "method": method,
                    "shots": shots,
                    "median_abs_error_c": float(np.median(err_c)),
                    "median_abs_error_ef": float(np.median(err_ef)),
                    "copies_consumed": shots * ledger.r_c,
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
    d = args.d
    rows = []
    if d == 2:
        ledger = protocols.resource_ledger("concurrence-moments")
        rows.append(("concurrence-moments", ledger.r_p, ledger.r_c, ledger.r, ""))
    spec = protocols.resource_ledger("spectrum", d)
    rows.append(("spectrum", spec.r_p, spec.r_c, spec.r, ""))
    tomo = protocols.resource_ledger("tomography", d)
    quoted = protocols.QUOTED_TOMOGRAPHY_R if d == 2 else ""
    rows.append(("tomography", tomo.r_p, tomo.r_c, tomo.r, quoted))
    print(f"{'protocol':<22}{'r_p':>6}{'r_c':>7}{'r':>9}  quoted")
    for name, rp, rc, r, q in rows:
        print(f"{name:<22}{rp:>6}{rc:>7}{r:>9}  {q}")
    results = [{"protocol": n, "r_p": rp, "r_c": rc, "r": r, "r_quoted": q or None}
               for n, rp, rc, r, q in rows]
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
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("protocol", help="run an estimation pipeline")
    p.add_argument("pipeline", choices=("concurrence", "negativity", "two-stage"))
    _add_state_args(p)
    _add_run_args(p, sampling.MODES)
    p.set_defaults(mode=None, shots=None)  # None: not given, which two-stage requires
    p.add_argument("--strict", action="store_true", help="exit 2 when estimates carry numerical flags")
    p.set_defaults(fn=cmd_protocol)

    p = sub.add_parser("compare", help="moments vs tomography error sweep (CSV)")
    _add_state_args(p)
    _add_run_args(p, ("sampled",))
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
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
