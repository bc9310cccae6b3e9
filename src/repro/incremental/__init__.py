"""Incremental matching: IncMatch, IncBMatch, IncIsoMat, HORNSAT baseline."""

from .affected import (
    AffReport,
    measure_incbsim,
    measure_incsim,
    semi_boundedness_probe,
)
from .edge_class import (
    classify_edge,
    classify_pair,
    is_relevant_deletion,
    is_relevant_insertion,
)
from .hornsat import HornSimulation
from .incbsim import BoundedSimulationIndex
from .inciso import IsoIndex
from .incsim import IncStats, SimulationIndex
from .types import (
    Update,
    apply_batch,
    apply_update,
    delete,
    insert,
    net_updates,
)

__all__ = [
    "AffReport",
    "measure_incsim",
    "measure_incbsim",
    "semi_boundedness_probe",
    "Update",
    "insert",
    "delete",
    "apply_update",
    "apply_batch",
    "net_updates",
    "IncStats",
    "SimulationIndex",
    "BoundedSimulationIndex",
    "HornSimulation",
    "IsoIndex",
    "classify_pair",
    "classify_edge",
    "is_relevant_deletion",
    "is_relevant_insertion",
]
