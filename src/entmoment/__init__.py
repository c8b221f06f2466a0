"""Reconstruction-free estimation of two-qubit entanglement measures.

A numpy library plus CLI that simulates collective-measurement protocols:
four moment observables on grouped state copies determine the concurrence
and entanglement of formation of an unknown two-qubit state, and the
spectrum of a structural-physical-approximation channel output determines
the negativity-based computable measure for any d (x) d system.  Exact
measures, finite-shot sampling and a tomography baseline are included for
validation and resource comparison.

``import entmoment`` loads no submodule and not numpy: each public name
below, and each submodule it names, is resolved on first use.
"""

import importlib
import math
import numbers

__version__ = "0.1.0"

#: the named state families (``states.make_state``) and the run modes of the
#: sampled entry points, here so the CLI parser reads them without numpy
FAMILIES = ("bell", "werner", "isotropic", "product-pure", "random-pure", "random-mixed")
MODES = ("ideal", "sampled")


def _whole(x, name: str, lo: int, hi: int | None = None) -> int:
    """``x`` as an int; ValueError, naming ``name``, unless an integer in lo..hi (numpy's too, not bool)."""
    if not ((type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool))
            and lo <= x and (hi is None or x <= hi)):
        rule = f"an integer of at least {lo}" if hi is None else f"{lo}..{hi}"
        raise ValueError(f"{name} must be {rule}, got {x!r}")
    return int(x)


def _real(x, name: str, lo=None, hi=None):
    """``x`` unchanged; ValueError, naming ``name``, unless a finite real number, in [lo, hi] if bounds are
    given (numpy's too, not bool; a huge int or a Fraction is compared, not converted)."""
    if not ((isinstance(x, float) or isinstance(x, numbers.Real) and not isinstance(x, bool))
            and abs(x) < math.inf and (lo is None or lo <= x <= hi)):
        rule = "a finite real number" if lo is None else f"a real number in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {rule}, got {x!r}")
    return x


def _local_dims(dims, name: str = "dims") -> tuple[int, int]:
    """``dims`` as a (dimA, dimB) tuple; ValueError, naming ``name``, unless two integers of at least 1."""
    try:
        da, db = dims if isinstance(dims, (tuple, list)) else ()
        return _whole(da, name, 1), _whole(db, name, 1)
    except ValueError:
        raise ValueError(f"{name} must be [dimA, dimB], integers of at least 1, got {dims!r}") from None


#: module -> the public names the package root resolves from it
_EXPORTS = {
    "inversion": "SpectrumRecovery spectrum_from_power_sums",
    "ledger": "QUOTED_TOMOGRAPHY_R ResourceLedger resource_ledger",
    "linalg": "cyclic_shift_matrix general_eigenvalues herm_eigenvalues partial_transpose",
    "measures": "ConcurrenceBreakdown GammaReport NegativityReport PptVerdict binary_entropy "
                "concurrence concurrence_breakdown ef_from_concurrence gamma_concurrence_report "
                "negativity_report ppt_verdict spin_flip",
    "protocols": "SECOND_STAGE_ABANDONED SpectrumEstimate TwoStageResult concurrence_from_moments "
                 "newton_invert spectrum_protocol two_stage_protocol",
    "sampling": "EstimatorRun ShotRecord SpectrumRun TomographyRun moment_standard_error "
                "moment_success_probability run_concurrence_protocol run_spectrum_protocol "
                "run_tomography_baseline sample_moment_povm",
    "spa": "GroupChannelOutput affine_map apply_spa_pt group_channel_output inverse_affine ladder_power_sums "
           "moment_observable_spec spa_shrink spa_threshold_by_choi",
    "states": "DensityMatrix bell_state isotropic_state make_state product_pure_state random_mixed_state "
              "random_pure_state random_unitary rng_stream state_from_json state_to_json werner_state",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["FAMILIES", "MODES", *_HOME]


def __getattr__(name):
    """Import the submodule ``name``, or the one that defines ``name`` and keep the name here."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
