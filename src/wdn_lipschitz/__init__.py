"""Lipschitz and one-sided-Lipschitz constants for water distribution
network hydraulics.

The package parses an EPANET-style network description, builds the
difference-algebraic model of its hydraulics, and bounds the Lipschitz
constant of the head-loss nonlinearity over a box of attainable flows three
ways: exactly in closed form, from above by a certified interval enclosure
at the box corner, and from below by quasi-Monte-Carlo sampling.
"""

from .analytical import (
    Bracket,
    interval_bracket,
    k_network,
    k_upper_max,
    k_upper_sqrt,
)
from .bounds import (
    FlowBox,
    default_box,
    load_bounds,
    loads_bounds,
    pump_max_flow,
)
from .dae import (
    DaeLayout,
    DaeSystem,
    TripletMatrix,
    build_dae,
    dae_residual,
    export_dae,
)
from .errors import (
    AssumptionError,
    BoundsError,
    DimensionTooLarge,
    DuplicateId,
    DuplicateLink,
    InpError,
    InvertedInterval,
    MalformedSection,
    MissingLink,
    MissingRequiredSection,
    NonPositiveFlow,
    NoPumps,
    ParameterOutOfRange,
    PumpNonpositiveLower,
    SampleCountTooLarge,
    UnknownLink,
    UnknownNodeRef,
    UsageError,
    WdnError,
)
from .estimates import LipschitzEstimate
from .inp import NetworkDescription, fit_pump_curve, parse_inp
from .network import (
    Network,
    build_network,
    eval_f,
    eval_f_batch,
    eval_jacobian_diag,
    jacobian_diag_batch,
    junction_residual,
    tank_step,
)
from .report import AnalysisReport, load_report_schema
from .sampling import SampleSequence, k_lower, k_lower_trace

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AssumptionError",
    "Bracket",
    "BoundsError",
    "DaeLayout",
    "DaeSystem",
    "DimensionTooLarge",
    "DuplicateId",
    "DuplicateLink",
    "FlowBox",
    "InpError",
    "InvertedInterval",
    "LipschitzEstimate",
    "MalformedSection",
    "MissingLink",
    "MissingRequiredSection",
    "Network",
    "NetworkDescription",
    "NonPositiveFlow",
    "NoPumps",
    "ParameterOutOfRange",
    "PumpNonpositiveLower",
    "SampleCountTooLarge",
    "SampleSequence",
    "TripletMatrix",
    "UnknownLink",
    "UnknownNodeRef",
    "UsageError",
    "WdnError",
    "build_dae",
    "build_network",
    "dae_residual",
    "default_box",
    "eval_f",
    "eval_f_batch",
    "eval_jacobian_diag",
    "export_dae",
    "fit_pump_curve",
    "interval_bracket",
    "jacobian_diag_batch",
    "junction_residual",
    "k_lower",
    "k_lower_trace",
    "k_network",
    "k_upper_max",
    "k_upper_sqrt",
    "load_bounds",
    "load_report_schema",
    "loads_bounds",
    "parse_inp",
    "pump_max_flow",
    "tank_step",
]
