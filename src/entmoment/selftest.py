"""Seeded invariant suite behind the ``selftest`` command.

Each module contributes a handful of checks sized to run in seconds.  The
whole suite is a pure function of the seed, so two runs with the same seed
produce identical reports byte for byte.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg, measures, protocols, sampling, spa, states

DEFAULT_SEED = 20240101


def _check(name: str, passed: bool, detail: float | str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _linalg_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=101)
    out = []

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n)
        ]
        v = linalg.cyclic_shift_matrix(n, d)
        explicit = complex((v * functools.reduce(np.kron, mats).T).sum(axis=1).sum())  # Tr(V K): one 1 per row of V
        fast = complex(np.trace(functools.reduce(np.matmul, mats)))
        worst = max(worst, abs(explicit - fast) / max(1.0, abs(explicit)))
    out.append(_check("shift-trace identity", worst <= 1e-10, worst))

    rho = states.random_mixed_state((2, 3), rng).matrix
    pt = linalg.partial_transpose(rho, (2, 3))
    again = linalg.partial_transpose(pt, (2, 3))
    ok = (
        np.array_equal(again, rho)
        and abs(np.trace(pt) - np.trace(rho)) == 0.0
        and linalg.hermiticity_defect(pt) <= 1e-15
    )
    out.append(_check("partial transpose involution/trace", ok, float(np.max(np.abs(again - rho)))))

    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    resid = float(np.max(np.abs(h - (v * w) @ v.conj().T)))
    out.append(_check("hermitian eigen reconstruction", resid <= 1e-9 * max(1.0, np.max(np.abs(h))), resid))
    return out


def _states_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=102)
    out = []

    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        w = np.sort(np.linalg.eigvalsh(states.werner_state(float(p)).matrix))
        expect = np.sort([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
        worst = max(worst, float(np.max(np.abs(w - expect))))
    out.append(_check("werner closed-form spectrum", worst <= 1e-12, worst))

    worst_purity = 0.0
    for _ in range(20):  # construction has checked each state's invariants
        st = states.random_mixed_state((2, 2), rng)
        worst_purity = max(worst_purity, float(np.trace(st.matrix @ st.matrix).real))
    out.append(_check("random-mixed invariants", worst_purity < 1.0 - 1e-12, worst_purity))

    st = states.random_mixed_state((2, 2), rng)
    rt = states.state_from_json(states.state_to_json(st))
    lossless = np.array_equal(rt.matrix, st.matrix)
    out.append(_check("serialization round trip", lossless, "bit-exact" if lossless else "lossy"))
    return out


def _measures_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=103)
    out = []

    bell = measures.concurrence_breakdown(states.bell_state())
    ok = abs(bell.concurrence - 1.0) <= 1e-12 and abs(bell.ef - 1.0) <= 1e-12
    out.append(_check("bell concurrence", ok, bell.concurrence))

    worst = 0.0
    for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        c = measures.concurrence(states.werner_state(p))
        worst = max(worst, abs(c - max(0.0, (3 * p - 1) / 2)))
    out.append(_check("werner concurrence closed form", worst <= 1e-10, worst))

    worst = 0.0
    for _ in range(10):
        st = states.random_mixed_state((2, 2), rng)
        u = np.kron(states.random_unitary(2, rng), states.random_unitary(2, rng))
        rotated = states.DensityMatrix(u @ st.matrix @ u.conj().T, (2, 2))
        worst = max(worst, abs(measures.concurrence(st) - measures.concurrence(rotated)))
    out.append(_check("local-unitary invariance", worst <= 1e-9, worst))

    agree = True
    for _ in range(50):
        st = states.random_mixed_state((2, 2), rng)
        npt = measures.ppt_verdict(st).entangled
        agree = agree and (npt == (measures.concurrence(st) > 1e-9))
    out.append(_check("npt iff positive concurrence", agree, "50 states"))

    worst = 0.0
    n_checked = 0
    while n_checked < 20:
        st = states.random_mixed_state((2, 2), rng)
        if not measures.ppt_verdict(st).entangled:
            continue
        n_checked += 1
        c = measures.concurrence(st)
        report = measures.gamma_concurrence_report(st)
        worst = max(worst, abs(4.0 * report.lambda_min / (c * c) - 1.0))
    out.append(_check("gamma ratio regression", worst <= 1e-6, worst))
    return out


def _spa_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=104)
    out = []

    thr = spa.spa_threshold_by_choi((2, 2))
    out.append(_check("choi threshold 2x2", abs(thr - 1.0 / 9.0) <= 1e-6, thr))
    out.append(_check("choi threshold identity", spa.spa_threshold_by_choi((2, 1)) == 1.0, 1.0))

    worst = 0.0
    for _ in range(25):
        st = states.random_mixed_state((2, 2), rng)
        sigma = spa.apply_spa_pt(st)
        pt_eigs = linalg.herm_eigenvalues(linalg.partial_transpose(st.matrix, (2, 2)))
        mapped = np.sort([spa.affine_map(x, 2) for x in pt_eigs])
        worst = max(worst, float(np.max(np.abs(np.sort(linalg.herm_eigenvalues(sigma.matrix)) - mapped))))
    out.append(_check("affine spectrum map", worst <= 1e-10, worst))

    st = states.random_mixed_state((2, 2), rng)
    output = spa.group_channel_output(st, 1)
    dense = (4.0 / 65.0) * np.eye(16) + np.kron(st.matrix, measures.spin_flip(st)) / 65.0
    v = linalg.cyclic_shift_matrix(2, 4)
    oracle = float((v * dense.T).sum(axis=1).sum().real)
    diff = abs(oracle - output.shift_trace())
    out.append(_check("group channel k=1 oracle", diff <= 1e-12, diff))
    return out


def _protocols_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=105)
    out = []

    worst = 0.0
    for _ in range(50):
        st = states.random_mixed_state((2, 2), rng)
        exact = protocols.exact_moment_fractions(st)  # exact: a fault in the float chain shows
        outputs = spa.group_channel_outputs(st)
        channel = [spa.moment_observable_spec(out.k).moment(out.shift_trace()) for out in outputs]
        worst = max(worst, max(abs(a - b) for a, b in zip(exact.floats(), channel)))
    out.append(_check("moment identity (channel vs direct)", worst <= 1e-9, worst))

    worst = 0.0
    for _ in range(100):
        lam = np.sort(rng.uniform(0.0, 1.0, 4))[::-1]
        inv = protocols.newton_invert(linalg.exact_power_traces(np.diag(lam), 4))  # ideal mode's exact moments
        worst = max(worst, float(np.max(np.abs(inv.values - lam))))
    out.append(_check("inversion round trip", worst <= 1e-8, worst))

    worst = 0.0
    for _ in range(10):
        st = states.random_mixed_state((2, 2), rng)
        est = protocols.spectrum_protocol(st)
        worst = max(worst, abs(est.report.ec - measures.negativity_report(st).ec))
    out.append(_check("spectrum pipeline vs exact E_c", worst <= 1e-6, worst))

    ok = True
    for p in (0.0, 0.2, 0.34, 0.6, 1.0):
        res = protocols.two_stage_protocol(states.werner_state(p))
        ok = ok and (res.entangled == (p > 1.0 / 3.0))
        ok = ok and ((res.message == protocols.SECOND_STAGE_ABANDONED) == (not res.entangled))
    out.append(_check("two-stage werner verdicts", ok, "p in {0, .2, .34, .6, 1}"))

    moments_ledger = protocols.resource_ledger("concurrence-moments")
    spectrum_ledger = protocols.resource_ledger("spectrum", 2)
    tomo_ledger = protocols.resource_ledger("tomography", 2)
    ok = (
        (moments_ledger.r_p, moments_ledger.r_c, moments_ledger.r) == (4, 20, 80)
        and (spectrum_ledger.r_p, spectrum_ledger.r_c) == (3, 9)
        and (tomo_ledger.r_p, tomo_ledger.r_c, tomo_ledger.r) == (15, 15, 225)
    )
    out.append(_check("resource ledgers", ok, f"moments r={moments_ledger.r}"))
    return out


def _sampling_checks(seed: int) -> list[dict]:
    rng = states.rng_stream(seed, stream=106)
    out = []

    st = states.random_mixed_state((2, 2), rng)
    ideal = sampling.run_concurrence_protocol(st, mode="ideal")
    exact = measures.concurrence_breakdown(st)
    diff = abs(ideal.breakdown.concurrence - exact.concurrence)
    out.append(_check("ideal-mode plug-in exactness", diff <= 1e-8, diff))

    a = sampling.run_concurrence_protocol(st, shots=2000, seed=seed, mode="sampled")
    b = sampling.run_concurrence_protocol(st, shots=2000, seed=seed, mode="sampled")
    same = a.moments == b.moments and a.breakdown == b.breakdown
    out.append(_check("sampled-run determinism", same, "bit-identical" if same else "mismatch"))

    bell = states.bell_state()
    n, reps = 10**4, 50
    p_plus = sampling.moment_success_probability(bell, 1)
    estimates = [
        sampling.sample_moment_povm(bell, 1, n, states.rng_stream(seed, stream=200 + r))[1]
        for r in range(reps)
    ]
    se = sampling.moment_standard_error(1, p_plus, n) / math.sqrt(reps)
    bias = abs(float(np.mean(estimates)) - 1.0)
    out.append(_check("moment estimator unbiased (5 se)", bias <= 5 * se, bias))

    tomo = sampling.run_tomography_baseline(st, mode="ideal")
    diff = float(np.max(np.abs(tomo.rho_hat.matrix - st.matrix)))
    out.append(_check("tomography exact-mode identity", diff <= 1e-12, diff))
    return out


def run_selftest(seed: int = DEFAULT_SEED) -> dict:
    """Run every module's invariant checks; returns a JSON-ready report."""
    modules = {
        "linalg": _linalg_checks(seed),
        "states": _states_checks(seed),
        "measures": _measures_checks(seed),
        "spa": _spa_checks(seed),
        "protocols": _protocols_checks(seed),
        "sampling": _sampling_checks(seed),
    }
    return {
        "seed": seed,
        "modules": [
            {
                "module": name,
                "passed": all(c["passed"] for c in checks),
                "checks": checks,
            }
            for name, checks in modules.items()
        ],
        "passed": all(c["passed"] for checks in modules.values() for c in checks),
    }
