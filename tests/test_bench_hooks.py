"""The benchmark's trace hooks: every traced name resolves and unhooks cleanly.

``perfbench/tracer.py`` rebinds the public functions it names; a rename in
the library would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from entmoment import sampling, states

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, qualname):
    owner = importlib.import_module(f"entmoment.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def bindings():
    """Every attribute of every loaded entmoment module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "entmoment" or name.startswith("entmoment."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(name, f"{attr}.{a}"): v for a, v in vars(value).items()})
    return out


def test_every_target_resolves():
    tracer = load_tracer()
    assert len(tracer.TARGETS) == 20
    for module_name, qualname in tracer.TARGETS:
        assert callable(resolve(module_name, qualname)), f"{module_name}.{qualname}"


def test_install_times_a_run_and_uninstall_restores():
    tracer_mod = load_tracer()
    before = bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        sampling.run_concurrence_protocol(states.bell_state(), mode="ideal")
    finally:
        tracer.uninstall()
    assert tracer.calls["sampling.run_concurrence_protocol"] == 1
    assert tracer.calls["protocols.exact_moment_fractions"] == 1
    after = bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
