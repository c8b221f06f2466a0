"""The four workloads: inputs from a seed, one run per input, correctness.

A workload is a fixed list of inputs (a *pass*).  ``run.py`` repeats the
pass in a closed loop with one client, so every pass after the first must
reproduce the first bit for bit.  Exact references are computed off the
clock, except on ``sampled-2q``, where they are part of the compare-style
sweep being timed.  The program receives only the generated states.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from child import run_child
from entmoment import measures, protocols, sampling, selftest, states
from entmoment.linalg import herm_eigenvalues
from entmoment.spa import apply_spa_pt

WORKLOADS = ("ideal-exact", "sampled-2q", "sampled-qudit", "cli-cold")

#: ideal-exact gate: acceptance criterion 4 of the program
IDEAL_TOL = 1e-6
#: absolute tolerance on the headline measure for within_tol_frac elsewhere
SAMPLED_TOL = 0.05
SHOT_LEVELS = (10**2, 10**4, 10**6)

TWO_QUBIT_FAMILIES = ("random-mixed", "werner", "bell", "isotropic", "product-pure", "random-pure")
LADDER_FAMILIES = ("random-mixed", "werner", "bell", "product-pure", "random-pure")
QUDIT_FAMILIES = ("random-mixed", "random-pure", "product-pure", "isotropic")

#: first-call warm-up run after ``import entmoment`` (or the CLI) in set-up
WARMUP = {
    "ideal-exact": (
        "import entmoment as em\n"
        "s = em.werner_state(0.8)\n"
        "em.run_concurrence_protocol(s, mode='ideal')\n"
        "em.run_spectrum_protocol(s, mode='ideal')\n"
    ),
    "sampled-2q": (
        "import entmoment as em\n"
        "s = em.werner_state(0.8)\n"
        "em.run_concurrence_protocol(s, shots=100, seed=1)\n"
        "em.run_tomography_baseline(s, shots=100, seed=1)\n"
        "em.run_spectrum_protocol(s, shots=100, seed=1)\n"
        "em.two_stage_protocol(s)\n"
        "em.concurrence_breakdown(s)\n"
        "em.negativity_report(s)\n"
    ),
    "sampled-qudit": (
        "import entmoment as em\n"
        "em.run_spectrum_protocol(em.isotropic_state(3, 0.5), shots=100, seed=1)\n"
    ),
    "cli-cold": "import entmoment.cli as cli\ncli.main(['resources'])\n",
}


@dataclass(frozen=True)
class Item:
    """One input of a pass."""

    kind: str
    label: str  # names the input in failure lists and trace contexts
    state: states.DensityMatrix | None = None
    shots: int = 0
    seed: int = 0
    ref: dict | None = None  # exact references (cli-cold: library results)
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class Outcome:
    """What one run produced, reduced to what the metrics and gates need."""

    digest: str
    estimate: float = math.nan  # headline measure, nan when the run has none
    exact: float = math.nan
    within_tol: bool | None = None
    silent_uniform: bool | None = None  # spectrum runs only
    error: str | None = None


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _uniform(values) -> bool:
    return float(np.ptp(values)) <= 1e-9


def _make(family: str, d: int, rng: np.random.Generator) -> states.DensityMatrix:
    p = float(rng.uniform(0.0, 1.0)) if family in ("werner", "isotropic") else None
    return states.make_state(family, dims=(d, d), p=p, rng=rng)


def _run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _exact_refs(state: states.DensityMatrix) -> dict:
    neg = measures.negativity_report(state)
    ref = {"E_c": neg.ec, "pt_uniform": _uniform(neg.pt_eigenvalues)}
    if state.dims == (2, 2):
        br = measures.concurrence_breakdown(state)
        ref.update(C=br.concurrence, E_f=br.ef)
    return ref


# ------------------------------------------------------------------ inputs

def ideal_exact_items(rng, tiny: bool) -> list[Item]:
    """Ladder on 2x2 states and spectrum pipeline at d = 2, 3, 4, ideal mode."""
    ladder_n, spectrum2_n = (1, 1) if tiny else (9, 7)
    qutrits = {"random-mixed": 1} if tiny else {"random-mixed": 8, "random-pure": 4, "product-pure": 2, "isotropic": 2}
    ququarts = ("isotropic",) if tiny else ("random-mixed", "isotropic")
    plan = [("ladder-ideal", 2, f) for f in LADDER_FAMILIES for _ in range(ladder_n)]
    plan += [("spectrum-ideal", 2, f) for f in TWO_QUBIT_FAMILIES for _ in range(spectrum2_n)]
    plan += [("spectrum-ideal", 3, f) for f, n in qutrits.items() for _ in range(n)]
    plan += [("spectrum-ideal", 4, f) for f in ququarts]
    items = []
    for kind, d, family in plan:
        state = _make(family, d, rng)
        items.append(Item(kind, f"{kind}/d{d}/{family}", state, ref=_exact_refs(state)))
    return items


def sampled_2q_items(rng, tiny: bool) -> list[Item]:
    """Compare-style sweep: ladder, tomography and d = 2 spectrum at each
    shot level, plus the two-stage protocol, per state."""
    items = []
    for family in TWO_QUBIT_FAMILIES[:2] if tiny else TWO_QUBIT_FAMILIES * 4:
        state = _make(family, 2, rng)
        for shots in SHOT_LEVELS:
            seed = _run_seed(rng)
            for kind in ("ladder", "tomography", "spectrum"):
                items.append(Item(kind, f"{kind}/{family}/{shots:.0e}", state, shots, seed))
        items.append(Item("two-stage", f"two-stage/{family}", state))
    return items


def sampled_purity_infeasible(state: states.DensityMatrix, shots: int, seed: int) -> bool:
    """Whether the sampled channel purity is at or below 1/D, the least any state has.

    This repeats the program's draw of the n = 2 power sum (same stream,
    same Bernoulli parameter), so the input mix can be fixed before the
    run.  Such moments currently take the inversion's uniform early
    return; the others send it through the full multiplicity search.
    """
    lam = herm_eigenvalues(apply_spa_pt(state).matrix)
    p_plus = min(max((1.0 + float(np.sum(lam**2))) / 2.0, 0.0), 1.0)
    successes = int(states.rng_stream(seed, stream=2).binomial(shots, p_plus))
    return 2.0 * (successes / shots) - 1.0 <= 1.0 / len(lam)


def sampled_qudit_items(rng, tiny: bool) -> list[Item]:
    """Sampled spectrum pipeline at d = 3 and 4, every shot level.

    Each (d, shots) cell holds a fixed number of inputs whose sampled
    purity is infeasible and of inputs whose is not, drawn in seed order,
    so that every seed carries the silently wrong and the slow path in the
    same proportion (roughly their natural rates at d = 3).  At d = 4 each
    cell holds one of each: a feasible d = 4 input searches to exhaustion
    for seconds, which bounds the pass length.
    """
    if tiny:
        cells = {(3, 10**2): (1, 1), (4, 10**2): (1, 0)}
    else:
        cells = {(d, shots): (13, 19) if d == 3 else (1, 1) for d in (3, 4) for shots in SHOT_LEVELS}
    items = []
    for (d, shots), (want_infeasible, want_feasible) in cells.items():
        wanted = {True: want_infeasible, False: want_feasible}
        i = 0
        while any(wanted.values()):
            family = QUDIT_FAMILIES[i % len(QUDIT_FAMILIES)]
            i += 1
            state, seed = _make(family, d, rng), _run_seed(rng)
            infeasible = sampled_purity_infeasible(state, shots, seed)
            if wanted[infeasible]:
                wanted[infeasible] -= 1
                stratum = "infeasible" if infeasible else "feasible"
                label = f"spectrum/d{d}/{family}/{shots:.0e}/{stratum}"
                items.append(Item("spectrum", label, state, shots, seed, _exact_refs(state)))
    return items


def cli_cold_items(rng, tiny: bool, workdir: Path) -> list[Item]:
    """One fresh ``python -m entmoment`` per run over the command mix."""
    items = []
    for i, family in enumerate(("random-mixed",) if tiny else ("random-mixed", "werner", "random-pure")):
        state = _make(family, 2, rng)
        path = workdir / f"state-{i}.json"
        path.write_text(states.state_to_json(state))
        seed = _run_seed(rng)
        exact = _exact_refs(state)
        ladder_ideal = sampling.run_concurrence_protocol(state, mode="ideal").breakdown.concurrence
        ladder = sampling.run_concurrence_protocol(state, shots=10**4, seed=seed, mode="sampled")
        spectrum = sampling.run_spectrum_protocol(state, mode="ideal").estimate.report.ec
        stage = protocols.two_stage_protocol(state)
        gamma = stage.stage_two.concurrence_estimate if stage.stage_two else None
        common = ("--in", str(path))
        # (name, argv, library results the --out record must repeat, headline key, exact key)
        runs = [
            ("exact", ("exact", *common),
             {"concurrence": exact["C"], "ef": exact["E_f"], "ec": exact["E_c"]}, "concurrence", "C"),
            ("concurrence-ideal", ("protocol", "concurrence", *common, "--mode", "ideal"),
             {"concurrence": ladder_ideal}, "concurrence", "C"),
            ("concurrence-sampled",
             ("protocol", "concurrence", *common, "--mode", "sampled", "--shots", "10000", "--seed", str(seed)),
             {"concurrence": ladder.breakdown.concurrence, "ef": ladder.breakdown.ef}, "concurrence", "C"),
            ("negativity-ideal", ("protocol", "negativity", *common, "--mode", "ideal"),
             {"ec": spectrum}, "ec", "E_c"),
            ("two-stage", ("protocol", "two-stage", *common),
             {"verdict": stage.verdict, "concurrence_estimate": gamma}, "concurrence_estimate", "C"),
        ]
        for name, argv, expected, headline, exact_key in runs:
            ref = {"expected": expected, "headline": headline, "exact": exact[exact_key]}
            items.append(Item("cli", f"cli/{name}/{family}", ref=ref, argv=argv))
    ledgers = [protocols.resource_ledger(p, 3) for p in ("spectrum", "tomography")]
    items.append(Item("cli", "cli/resources", argv=("resources", "--d", "3"),
                      ref={"expected": {"rows": [[x.protocol, x.r_p, x.r_c, x.r] for x in ledgers]}}))
    seed = _run_seed(rng)
    report = selftest.run_selftest(seed)
    failing = [f"{m['module']}/{c['name']} ({c['detail']})" for m in report["modules"]
               for c in m["checks"] if not c["passed"]]
    items.append(Item("cli", f"cli/selftest --seed {seed}", argv=("selftest", "--seed", str(seed)),
                      ref={"expected": {"passed": report["passed"]}, "library_failures": failing}))
    return items


def make_items(workload: str, seed: int, tiny: bool, workdir: Path) -> list[Item]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOADS.index(workload)])))
    if workload == "cli-cold":
        return cli_cold_items(rng, tiny, workdir)
    return {"ideal-exact": ideal_exact_items, "sampled-2q": sampled_2q_items,
            "sampled-qudit": sampled_qudit_items}[workload](rng, tiny)


# -------------------------------------------------------------------- runs

def _scored(digest, estimate, exact, tol, silent_uniform=None) -> Outcome:
    if not math.isfinite(estimate):
        return Outcome(digest, estimate, exact, error="non-finite estimate")
    return Outcome(digest, estimate, exact, abs(estimate - exact) <= tol, silent_uniform)


def _spectrum_outcome(run, exact_ec: float, pt_uniform: bool, tol: float) -> Outcome:
    est = run.estimate
    silent = not run.flags and _uniform(est.channel_eigenvalues) and not pt_uniform
    digest = _digest(est.channel_eigenvalues, est.report.ec, run.flags)
    return _scored(digest, est.report.ec, exact_ec, tol, silent)


def run_ideal(item: Item) -> Outcome:
    ref = item.ref
    if item.kind == "ladder-ideal":
        run = sampling.run_concurrence_protocol(item.state, mode="ideal")
        br = run.breakdown
        out = _scored(_digest(br.lambdas, br.concurrence, br.ef, run.flags), br.concurrence, ref["C"], IDEAL_TOL)
        gated = {"C": (br.concurrence, ref["C"]), "E_f": (br.ef, ref["E_f"])}
    else:
        run = sampling.run_spectrum_protocol(item.state, mode="ideal")
        out = _spectrum_outcome(run, ref["E_c"], ref["pt_uniform"], IDEAL_TOL)
        gated = {"E_c": (out.estimate, ref["E_c"])}
    if out.error is not None:
        return out
    missed = [f"{k} off by {abs(e - x):.3g}" for k, (e, x) in gated.items() if not abs(e - x) <= IDEAL_TOL]
    return replace(out, within_tol=not missed, error="; ".join(missed) or None)


def run_sampled(item: Item) -> Outcome:
    state, shots, seed = item.state, item.shots, item.seed
    if item.kind == "spectrum":
        run = sampling.run_spectrum_protocol(state, shots=shots, seed=seed, mode="sampled")
        if item.ref is not None:
            return _spectrum_outcome(run, item.ref["E_c"], item.ref["pt_uniform"], SAMPLED_TOL)
        exact = measures.negativity_report(state)
        return _spectrum_outcome(run, exact.ec, _uniform(exact.pt_eigenvalues), SAMPLED_TOL)
    if item.kind == "ladder":
        run = sampling.run_concurrence_protocol(state, shots=shots, seed=seed, mode="sampled")
        estimate, flags = run.breakdown.concurrence, run.flags
    elif item.kind == "tomography":
        run = sampling.run_tomography_baseline(state, shots=shots, seed=seed, mode="sampled")
        estimate, flags = run.breakdown.concurrence, ()
    else:
        res = protocols.two_stage_protocol(state)
        estimate = res.stage_two.concurrence_estimate if res.stage_two else 0.0
        flags = res.stage_two.flags if res.stage_two else (res.verdict,)
    exact = measures.concurrence_breakdown(state).concurrence
    return _scored(_digest(estimate, flags), estimate, exact, SAMPLED_TOL)


def run_cli(item: Item, out_path: Path, env: dict, cwd: Path) -> Outcome:
    cmd = [sys.executable, "-m", "entmoment", *item.argv, "--out", str(out_path)]
    out_path.unlink(missing_ok=True)  # a call that writes nothing must not pass on a stale report
    code, err = run_child(cmd, env, cwd)
    if code != 0:
        known = item.ref.get("library_failures")
        why = f"; in-process the same config fails {', '.join(known)}" if known else ""
        return Outcome("", error=f"exit {code}: {err.strip()[-200:]}{why}")
    text = out_path.read_text()
    results = json.loads(text)["results"]
    if item.argv[0] == "resources":
        results = {"rows": [[r["protocol"], r["r_p"], r["r_c"], r["r"]] for r in results]}
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    expected = item.ref["expected"]
    mismatched = [k for k, v in expected.items() if results.get(k) != v]
    if mismatched:
        return Outcome(digest, error=f"--out disagrees with the library on {', '.join(mismatched)}")
    if "headline" not in item.ref:
        return Outcome(digest)
    estimate = results[item.ref["headline"]]
    return _scored(digest, 0.0 if estimate is None else float(estimate), item.ref["exact"], SAMPLED_TOL)
