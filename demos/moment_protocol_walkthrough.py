"""The four-moment ladder, step by step, without ever building big matrices.

A sample of 20 copies splits into groups of 2, 4, 6, 8.  Each group passes
through a structural-physical-approximation channel whose output encodes
one power sum p_k = sum_i lambda_i^k of the rho rho~ spectrum in a single
binary-observable mean.  Newton's identities then return the lambdas, and
with them the concurrence.

Run:  python demos/moment_protocol_walkthrough.py
"""

import numpy as np

from entmoment import (
    concurrence_breakdown,
    concurrence_from_moments,
    group_channel_output,
    ladder_power_sums,
    moment_observable_spec,
    moment_success_probability,
    newton_invert,
    random_mixed_state,
    resource_ledger,
    rng_stream,
)

state = random_mixed_state((2, 2), rng_stream(7, 0))
exact = concurrence_breakdown(state)
print("hidden test state: a Hilbert-Schmidt random two-qubit mixed state")
print("its exact concurrence (Wootters oracle):", round(exact.concurrence, 10))
print()

print("group channels: copies, output dim 16^k (never materialized), and")
print("the single binary parameter p+ each group exposes")
print(f"{'k':>2} {'copies':>7} {'dim':>10} {'amplif.':>10} {'p+':>12} {'p_k':>12}")
for k in (1, 2, 3, 4):
    spec = moment_observable_spec(k)
    out = group_channel_output(state, k)
    p_plus = moment_success_probability(state, k)
    p_k = spec.moment(out.shift_trace())
    print(f"{k:2d} {spec.copies:7d} {16**k:10d} {spec.amplification:10d} "
          f"{p_plus:12.8f} {p_k:12.8f}")

print()
moments = ladder_power_sums(state)
print("power sums from the direct cyclic trace:", np.round(moments, 10))
inv = newton_invert(moments)
print("Newton inversion  ->  lambdas:", np.round(inv.values, 10))
print("eigendecomposition reference :", np.round(exact.lambdas, 10))

estimate, flags = concurrence_from_moments(moments)
print()
print("concurrence from moments:", round(estimate.concurrence, 10), "flags:", flags)
print("E_f from moments        :", round(estimate.ef, 10))

led = resource_ledger("concurrence-moments")
print()
print(f"resource ledger: {led.r_p} parameters x {led.r_c} copies per round "
      f"-> r = {led.r}")
print("full reconstruction needs 15 parameters; this ladder needs 4.")
