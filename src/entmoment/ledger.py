"""Resource ledgers: estimated parameters and consumed copies per round.

Plain integer accounting, numpy-free, so the ``resources`` command loads
nothing numerical.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _whole

#: round-count figure commonly quoted for full two-qubit state reconstruction;
#: the naive product of the ledger entries is 15 * 15 = 225, both are reported
QUOTED_TOMOGRAPHY_R = 165


class ResourceLedger(NamedTuple):
    """(parameters estimated, copies per round, product) for one protocol."""

    protocol: str
    r_p: int
    r_c: int

    @property
    def r(self) -> int:
        return self.r_p * self.r_c


def resource_ledger(protocol: str, d: int = 2) -> ResourceLedger:
    """Accounting for the moment ladder, the spectrum pipeline on d (x) d,
    and the full-reconstruction baseline."""
    if protocol not in ("concurrence-moments", "spectrum", "tomography"):
        raise ValueError(f"unknown protocol {protocol!r}")
    d = _whole(d, "local dimension", 2)
    if protocol == "concurrence-moments":
        if d != 2:
            raise ValueError(f"the moment ladder is for two qubits (d = 2), got d = {d}")
        return ResourceLedger(protocol, r_p=4, r_c=2 + 4 + 6 + 8)
    if protocol == "spectrum":
        return ResourceLedger(protocol, r_p=d**2 - 1, r_c=(d**4 + d**2 - 2) // 2)
    return ResourceLedger(protocol, r_p=d**4 - 1, r_c=d**4 - 1)
