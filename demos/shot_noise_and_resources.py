"""What finite statistics do to the protocols, and what the copies buy.

The k-th moment estimate multiplies binary-outcome shot noise by the
shrink amplification d_k^3 + 1 = 65, 4097, 262145, 16777217.  The first
two moments are affordable; the fourth is hopeless at desk budgets, and
the comparison against the tomography baseline shows where each approach
earns its copies.

Run:  python demos/shot_noise_and_resources.py
"""

import numpy as np

from entmoment import (
    bell_state,
    concurrence_breakdown,
    moment_standard_error,
    moment_success_probability,
    resource_ledger,
    run_concurrence_protocol,
    run_spectrum_protocol,
    run_tomography_baseline,
    sample_moment_povm,
    negativity_report,
    rng_stream,
    werner_state,
)

bell = bell_state()
shots = 10**6

print(f"=== shot-noise amplification per moment (bell, N = {shots:.0e}) ===")
print(f"{'k':>2} {'p+':>10} {'predicted std':>14} {'observed std':>14}")
for k in (1, 2, 3, 4):
    p_plus = moment_success_probability(bell, k)
    predicted = moment_standard_error(k, p_plus, shots)
    draws = [
        sample_moment_povm(bell, k, shots, rng_stream(99, 100 * k + r))[1]
        for r in range(60)
    ]
    print(f"{k:2d} {p_plus:10.6f} {predicted:14.4g} {np.std(draws, ddof=1):14.4g}")
print("p_k lives in [0, 1]: estimating the k = 4 moment at this budget is",
      "out of the question, exactly as the amplification factor says.")

print()
print("=== end-to-end runs on werner(0.8), exact C = 0.7 ===")
state = werner_state(0.8)
exact = concurrence_breakdown(state)
for n in (10**4, 10**6, 10**8):
    run = run_concurrence_protocol(state, shots=n, seed=5, mode="sampled")
    print(f"moment ladder N = {n:.0e}: C_hat = {run.breakdown.concurrence:7.4f} "
          f"(flags: {', '.join(run.flags) or 'none'})")
for n in (10**4, 10**6):
    tomo = run_tomography_baseline(state, shots=n, seed=5, mode="sampled")
    print(f"tomography    N = {n:.0e}: C_hat = {tomo.breakdown.concurrence:7.4f}")

print()
print("=== negativity protocol convergence (bell) ===")
exact_ec = negativity_report(bell).ec
for n in (10**3, 10**5, 10**7):
    errs = [
        abs(run_spectrum_protocol(bell, shots=n, seed=s, mode="sampled").estimate.report.ec
            - exact_ec)
        for s in range(40)
    ]
    print(f"N = {n:.0e}: median |Ec_hat - Ec| = {np.median(errs):.4f}")

print()
print("=== resource ledgers (parameters x copies per round) ===")
for name, d in (("concurrence-moments", 2), ("spectrum", 2), ("spectrum", 3),
                ("tomography", 2), ("tomography", 3)):
    led = resource_ledger(name, d)
    print(f"{name:>20} d={d}: r_p = {led.r_p:3d}, r_c = {led.r_c:3d}, r = {led.r}")
print("the moment ladder spends 33% more copies per round than tomography's")
print("15 but estimates almost four times fewer parameters (r = 80, quoted")
print("reconstruction figure 165, naive product 225).")
