"""SPICE substrate: MNA simulator, macromodels, netlister, waveforms."""

from repro._imports import deferred_exports

# Resolved on first use: importing the package must not pull in the
# netlister (and with it the mapper), and AC analysis and waveform
# measurement load numpy.  See DESIGN.md, "Import layering".
__getattr__, __dir__ = deferred_exports(
    globals(),
    {
        "AnalysisGuard": "repro.spice.linalg",
        "guarded_solve": "repro.spice.linalg",
        "OpAmpMacro": "repro.spice.macromodel",
        "add_limiter_stage": "repro.spice.macromodel",
        "add_opamp": "repro.spice.macromodel",
        "Circuit": "repro.spice.mna",
        "MnaSolver": "repro.spice.mna",
        "TransientResult": "repro.spice.mna",
        "dc": "repro.spice.mna",
        "pulse_wave": "repro.spice.mna",
        "pwl_wave": "repro.spice.mna",
        "simulate_transient": "repro.spice.mna",
        "sin_wave": "repro.spice.mna",
        "ElaboratedCircuit": "repro.spice.netlister",
        "elaborate": "repro.spice.netlister",
        "infer_control_links": "repro.spice.netlister",
        "to_spice_deck": "repro.spice.netlister",
        "AcResult": "repro.spice.ac",
        "AcSolver": "repro.spice.ac",
        "ac_sweep": "repro.spice.ac",
        "waveform": "repro.spice.waveform",
    },
)

__all__ = [
    "AcResult",
    "AcSolver",
    "AnalysisGuard",
    "Circuit",
    "ElaboratedCircuit",
    "MnaSolver",
    "OpAmpMacro",
    "TransientResult",
    "ac_sweep",
    "add_limiter_stage",
    "add_opamp",
    "dc",
    "elaborate",
    "guarded_solve",
    "infer_control_links",
    "pulse_wave",
    "pwl_wave",
    "simulate_transient",
    "sin_wave",
    "to_spice_deck",
    "waveform",
]
