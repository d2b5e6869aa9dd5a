"""VHIF: the VASE Hierarchical Intermediate Format (paper Section 4)."""

from repro._imports import deferred_exports
from repro.vhif.design import PortInfo, VhifDesign, VhifStatistics
from repro.vhif.fsm import (
    ALWAYS,
    AboveEvent,
    AllOf,
    AnyOf,
    BoolTest,
    Condition,
    DataOp,
    Fsm,
    Not,
    PortEvent,
    SignalEquals,
    START_STATE,
    State,
    Transition,
    sensitivity_condition,
)
from repro.vhif.optimize import OptimizeReport, optimize_design, optimize_sfg
from repro.vhif.serialize import design_from_json, design_to_json
from repro.vhif.sfg import (
    Block,
    BlockKind,
    CONTROL_PORT,
    Endpoint,
    Net,
    SignalFlowGraph,
)
from repro.vhif.validate import validate_design, validate_sfg

# The interpreter is numpy-backed: resolved on first use.
__getattr__, __dir__ = deferred_exports(
    globals(),
    {
        name: "repro.vhif.interp"
        for name in ("Interpreter", "TraceSet", "eval_discrete", "simulate")
    },
)

__all__ = [
    "ALWAYS",
    "AboveEvent",
    "AllOf",
    "AnyOf",
    "Block",
    "BlockKind",
    "BoolTest",
    "CONTROL_PORT",
    "Condition",
    "DataOp",
    "Endpoint",
    "Fsm",
    "Interpreter",
    "Net",
    "Not",
    "PortEvent",
    "PortInfo",
    "START_STATE",
    "SignalEquals",
    "SignalFlowGraph",
    "State",
    "TraceSet",
    "Transition",
    "VhifDesign",
    "VhifStatistics",
    "OptimizeReport",
    "design_from_json",
    "design_to_json",
    "eval_discrete",
    "optimize_design",
    "optimize_sfg",
    "sensitivity_condition",
    "simulate",
    "validate_design",
    "validate_sfg",
]
