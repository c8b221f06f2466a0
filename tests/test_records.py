"""Public value records: immutable named tuples whose field order is fixed.

The field order is the key order of every record the CLI writes with
``_asdict()``, so it is pinned here name by name.
"""

import importlib

import numpy as np
import pytest

from entmoment import sampling, states

FIELDS = {
    "inversion.SpectrumRecovery": ("values", "flags"),
    "measures.ConcurrenceBreakdown": ("lambdas", "concurrence", "ef"),
    "measures.NegativityReport": ("pt_eigenvalues", "trace_norm_pt", "negativity", "ec"),
    "measures.PptVerdict": ("verdict", "min_pt_eigenvalue"),
    "measures.GammaReport": ("lambda_min", "imag_residual", "concurrence_estimate", "flags"),
    "protocols.MomentVector": ("p",),
    "protocols.InversionResult": ("lambdas", "flags"),
    "protocols.SpectrumEstimate": ("report", "channel_eigenvalues", "flags"),
    "protocols.TwoStageResult": (
        "verdict", "min_channel_eigenvalue", "min_pt_eigenvalue_estimate", "message", "stage_two",
    ),
    "protocols.ResourceLedger": ("protocol", "r_p", "r_c"),
    "sampling.ShotRecord": ("shots", "successes", "target_mean"),
    "sampling.MomentSample": ("k", "record", "moment_estimate", "copies_consumed"),
    "sampling.EstimatorRun": ("samples", "moments", "breakdown", "flags"),
    "sampling.SpectrumRun": ("samples", "estimate"),
    "sampling.TomographyRun": ("expectations", "shots", "rho_hat", "breakdown"),
    "spa.GroupChannelOutput": ("k", "p_k"),
    "spa.MomentObservableSpec": ("k", "copies", "d", "amplification", "offset", "d_cubed_offset"),
    "states.StateDiagnostics": ("hermiticity_defect", "trace_defect", "min_eigenvalue"),
}


def _record_class(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"entmoment.{module}"), name)


def test_every_public_record_is_listed():
    found = set()
    for module in {path.split(".")[0] for path in FIELDS} | {"linalg", "selftest", "cli"}:
        mod = importlib.import_module(f"entmoment.{module}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and hasattr(obj, "_fields")):
                found.add(f"{module}.{name}")
    assert found == set(FIELDS)


@pytest.mark.parametrize("path", sorted(FIELDS))
def test_record_field_order_is_fixed(path):
    assert _record_class(path)._fields == FIELDS[path]


@pytest.mark.parametrize("path", sorted(FIELDS))
def test_record_rejects_attribute_assignment(path):
    cls = _record_class(path)
    record = cls._make(range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    with pytest.raises(AttributeError):
        record.unlisted = -1
    assert record == tuple(range(len(cls._fields)))


def test_density_matrix_rejects_attribute_assignment():
    state = states.bell_state()
    with pytest.raises(AttributeError):
        state.dims = (4, 1)


def test_record_keyword_construction_repr_and_asdict():
    shot = sampling.ShotRecord(shots=4, successes=1, target_mean=0.25)
    assert repr(shot) == "ShotRecord(shots=4, successes=1, target_mean=0.25)"
    assert shot.estimate == 0.25
    assert shot._asdict() == {"shots": 4, "successes": 1, "target_mean": 0.25}
    diag = states.validate_state(np.eye(2) / 2)
    assert diag.ok and str(diag).startswith("StateDiagnostics(hermiticity_defect=")
