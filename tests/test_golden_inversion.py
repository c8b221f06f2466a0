"""The power-sum inversion pinned bit for bit on a fixed set of inputs.

``golden_inversion.json`` holds the inputs of ``spectrum_from_power_sums``
(floats as ``float.hex``, Fractions as ``"num/den"``) together with the
values (as ``float.hex``) and flags it returned when the file was recorded.
The exhaustive reference in ``test_inversion.py`` calls the library's own
``_power_table`` and ``_gauss_newton``, so it cannot see a change inside
them; this file depends on nothing the library computes today.

Every case names the kind of its input (``exact``, ``float`` or
``finite-shot``) and the route that produced its output: ``degenerate``
(the all-equal early return), ``clusters-<k>`` (the structure with k
distinct values won) or ``raw`` / ``raw-complex`` (no structure reached the
floor; the projected roots came back, flagged or not).  The inputs cover
n = 2..16 and 25: channel moments of named and random states at d = 2..5,
exact and rounded; seeded finite-shot runs at d = 2..5; random spectra with
repeated values, exact, rounded and perturbed; and moments no real spectrum
has.

A change that alters these outputs on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_inversion.py

and states the change in CHANGES.md.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entmoment import inversion, protocols, sampling, states
from entmoment.inversion import spectrum_from_power_sums
from entmoment.linalg import Moments
from test_inversion import werner_qudit

GOLDEN = Path(__file__).with_name("golden_inversion.json")
SEED = 4410


def encode_input(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x).hex()


def decode_input(s):
    return Fraction(s) if "/" in s else float.fromhex(s)


def _channel_states(d):
    rng = states.rng_stream(SEED, d)
    out = {"isotropic-1": states.isotropic_state(d, 1.0), "isotropic-0.4": states.isotropic_state(d, 0.4),
           "werner-0.7": states.werner_state(0.7) if d == 2 else werner_qudit(d, 0.7),
           "product-pure": states.product_pure_state((d, d), rng)}
    for i in range(2):
        out[f"random-mixed-{i}"] = states.random_mixed_state((d, d), rng)
        out[f"random-pure-{i}"] = states.random_pure_state((d, d), rng)
    if d == 4:
        # random-pure states whose winning structure merges two eigenvalues
        for seed in (1, 32, 132):
            out[f"random-pure-seed-{seed}"] = states.random_pure_state((4, 4), states.rng_stream(seed, 0))
    return out


def _sampled_inputs(d, shots, seed, state):
    seen = []
    real = protocols.spectrum_from_power_sums
    protocols.spectrum_from_power_sums = lambda p: seen.append(list(p)) or real(p)
    try:
        sampling.run_spectrum_protocol(state, shots=shots, seed=seed, mode="sampled")
    finally:
        protocols.spectrum_from_power_sums = real
    return seen[0]


def _spectrum(rng, n):
    """n values in [-0.3, 1], some of them repeated."""
    distinct = int(rng.integers(1, n + 1))
    values = rng.uniform(-0.3, 1.0, distinct)
    return np.sort(np.concatenate([values, rng.choice(values, n - distinct)]))


def cases():
    """(name, kind, power sums) of every golden input, in a fixed order."""
    out = []
    for d in (2, 3, 4):
        for name, state in _channel_states(d).items():
            exact = protocols.spectrum_power_sums(state)
            out.append((f"channel/d{d}/{name}/exact", "exact", exact))
            out.append((f"channel/d{d}/{name}/float", "float", [float(x) for x in exact]))
    # n = 25, a size no benchmark workload reaches
    for name, state in (("isotropic-0.4", states.isotropic_state(5, 0.4)),
                        ("random-mixed-0", states.random_mixed_state((5, 5), states.rng_stream(SEED, 5)))):
        exact = protocols.spectrum_power_sums(state)
        out.append((f"channel/d5/{name}/exact", "exact", exact))
        out.append((f"channel/d5/{name}/float", "float", [float(x) for x in exact]))
    rng = states.rng_stream(SEED, 0)
    # a single shot or 1e12 shots per order: the only budgets at which some
    # d = 2 estimates still have an all-real spectrum
    for d, shots, reps in ((2, 1, 4), (2, 10**2, 4), (2, 10**4, 4), (2, 10**6, 4), (2, 10**12, 4),
                           (3, 10**2, 4), (3, 10**4, 4), (3, 10**6, 4), (4, 10**6, 2),
                           (5, 10**2, 1), (5, 10**4, 1), (5, 10**6, 1)):
        for seed in range(reps):
            state = states.random_mixed_state((d, d), rng) if seed % 2 else states.random_pure_state((d, d), rng)
            out.append((f"finite-shot/d{d}/{shots}/{seed}", "finite-shot", _sampled_inputs(d, shots, seed, state)))
    rng = states.rng_stream(SEED, 1)
    for n in range(2, 17):
        for i in range(2):
            lam = _spectrum(rng, n)
            exact = [sum(Fraction(float(x)) ** m for x in lam) for m in range(1, n + 1)]
            floats = [float(x) for x in exact]
            noisy = [x * (1.0 + 10.0 ** rng.uniform(-12, -4) * rng.standard_normal()) for x in floats]
            out.append((f"spectrum/n{n}/{i}/exact", "exact", exact))
            out.append((f"spectrum/n{n}/{i}/float", "float", floats))
            out.append((f"spectrum/n{n}/{i}/perturbed", "float", noisy))
    for n in range(3, 9):
        # the smallest value doubled, p_2 lowered a little: the pair turns into
        # complex roots whose imaginary part may stay below the flag's threshold
        lam = np.linspace(0.9, 0.1, n - 1)[list(range(n - 1)) + [n - 2]]
        for shift in (1e-12, 1e-13):
            psums = [float(np.sum(lam**m)) for m in range(1, n + 1)]
            psums[1] -= shift
            out.append((f"near-double/n{n}/{shift:g}", "float", psums))
    rng = states.rng_stream(SEED, 2)
    for n in range(2, 17):
        if n in (2, 5, 9, 16):
            value = rng.uniform(-1.0, 1.0)
            out.append((f"all-equal/n{n}/exact", "exact", [n * Fraction(value) ** m for m in range(1, n + 1)]))
            out.append((f"all-equal/n{n}/float", "float", [n * value**m for m in range(1, n + 1)]))
        out.append((f"infeasible/n{n}", "float", list(rng.uniform(-1.0, 1.0) * rng.uniform(0.2, 2.0, n))))
    return out


def route_of(psums):
    """The route spectrum_from_power_sums takes on psums, and its output.

    A structure is accepted by the screen (a value below the threshold that
    _accept_below gives the run) or by a Gauss-Newton pass (a residual of at
    most 1); either way the search stops there, so the last one wins."""
    accepted, threshold = [], []
    real_screen, real_accept, real_fit = inversion._screen, inversion._accept_below, inversion._gauss_newton

    def watched_accept(*args):
        threshold.append(real_accept(*args))
        return threshold[-1]

    def watched_screen(means, *args):
        value = real_screen(means, *args)
        if value < threshold[-1]:
            accepted.append(len(means))
        return value

    def watched_fit(*args):
        z, res = real_fit(*args)
        if res <= 1.0:
            accepted.append(len(z))
        return z, res

    inversion._screen, inversion._accept_below, inversion._gauss_newton = watched_screen, watched_accept, watched_fit
    try:
        rec = spectrum_from_power_sums(psums)
    finally:
        inversion._screen, inversion._accept_below, inversion._gauss_newton = real_screen, real_accept, real_fit
    if inversion._centered_setup(Moments.of(psums))[2] is None:
        route = "degenerate"
    elif accepted:
        route = f"clusters-{accepted[-1]}"
    else:
        route = "raw-complex" if inversion.COMPLEX_ROOTS_FLAG in rec.flags else "raw"
    return route, rec


def record():
    golden = {}
    for name, kind, psums in cases():
        route, rec = route_of(psums)
        golden[name] = {"kind": kind, "route": route, "power_sums": [encode_input(x) for x in psums],
                        "values": [float(v).hex() for v in rec.values], "flags": list(rec.flags)}
    return golden


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_inversion_is_bit_identical(name):
    case = GOLDEN_CASES[name]
    rec = spectrum_from_power_sums([decode_input(s) for s in case["power_sums"]])
    assert [float(v).hex() for v in rec.values] == case["values"]
    assert list(rec.flags) == case["flags"]
    assert rec.values.dtype == np.float64


def test_golden_inversion_covers_every_route():
    assert len(GOLDEN_CASES) >= 200
    sizes = {len(case["power_sums"]) for case in GOLDEN_CASES.values()}
    assert sizes == set(range(2, 17)) | {25}
    routes = {(case["kind"], case["route"]) for case in GOLDEN_CASES.values()}
    for kind in ("exact", "float", "finite-shot"):
        assert any(k == kind and r.startswith("clusters-") for k, r in routes), kind
    assert {r for _, r in routes} >= {"degenerate", "raw", "raw-complex"}
    # merged structures: a winning cluster count below n, at several counts
    merged = {case["route"] for case in GOLDEN_CASES.values()
              if case["route"].startswith("clusters-")
              and int(case["route"].split("-")[1]) < len(case["power_sums"])}
    assert len(merged) >= 4


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
