"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds each public function in ``TARGETS`` to a timing
wrapper in every ``entmoment`` module that holds it, because modules bind
imported names locally (``protocols`` holds its own ``exact_power_traces``,
``sampling`` its own ``spectrum_protocol``).  Methods are rebound on their
class.  ``uninstall`` restores the originals, so untimed code runs the
program unwrapped.

A span's self time is its duration minus the durations of the spans it
encloses.  Durations are also kept per caller-set ``context`` (the benchmark
sets the label of the input being run), which lets single rows, such as one
dimension of one state family, be read back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (module, qualified name) of every traced public function, layer by layer
TARGETS = (
    ("states", "rng_stream"),
    ("linalg", "exact_power_traces"),
    ("linalg", "exact_product_power_traces"),
    ("linalg", "herm_eigenvalues"),
    ("inversion", "spectrum_from_power_sums"),
    ("spa", "apply_spa_pt"),
    ("spa", "GroupChannelOutput.shift_trace"),
    ("measures", "concurrence_breakdown"),
    ("measures", "negativity_report"),
    ("measures", "gamma_concurrence_report"),
    ("protocols", "exact_moment_fractions"),
    ("protocols", "spectrum_power_sums"),
    ("protocols", "spectrum_protocol"),
    ("protocols", "spectrum_from_channel_moments"),
    ("protocols", "concurrence_from_moments"),
    ("protocols", "two_stage_protocol"),
    ("sampling", "sample_moment_povm"),
    ("sampling", "run_concurrence_protocol"),
    ("sampling", "run_spectrum_protocol"),
    ("sampling", "run_tomography_baseline"),
)

#: the span whose unflagged results count as clean
CLEAN_COUNTED = "inversion.spectrum_from_power_sums"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.clean = defaultdict(int)
        self.durations = defaultdict(list)  # (span name, context) -> [s]
        self.context = ""
        self._open = []  # per open span: seconds covered by its child spans
        self._undo = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        open_spans = self._open
        count_clean = name == CLEAN_COUNTED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                self.durations[(name, self.context)].append(elapsed)
            if count_clean and not result.flags:
                self.clean[name] += 1
            return result

        return span

    def install(self):
        holders = [m for n, m in list(sys.modules.items()) if n == "entmoment" or n.startswith("entmoment.")]
        for module_name, qualname in TARGETS:
            module = importlib.import_module(f"entmoment.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self, name, context_prefix=""):
        """Durations of every span ``name`` opened under a matching context."""
        return [
            d
            for (span_name, context), values in self.durations.items()
            if span_name == name and context.startswith(context_prefix)
            for d in values
        ]
