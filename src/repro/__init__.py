"""Reproduction of "A VHDL-AMS Compiler and Architecture Generator for
Behavioral Synthesis of Analog Systems" (Doboli & Vemuri, DATE 1999).

The public API mirrors the paper's design flow (Figure 1):

* :func:`repro.vass.parse_source` / :func:`repro.vass.analyze_source` —
  the VASS frontend (Section 3);
* :func:`repro.compiler.compile_design` — VASS to VHIF (Section 4);
* :func:`repro.synth.map_sfg` — branch-and-bound architecture
  generation (Section 5);
* :func:`repro.flow.synthesize` — the whole pipeline in one call;
* :mod:`repro.spice` — netlisting and circuit-level simulation
  (Section 6's experiments);
* :mod:`repro.apps` — the five Table-1 applications.

The stable entry points for embedding the flow are
:func:`synthesize` with a :class:`FlowOptions` bag — including
:class:`ParallelOptions`, which picks the execution backend
(``serial`` / ``thread`` / ``process``) for solver exploration and
batch runs — returning a :class:`SynthesisResult`; every error the
flow raises deliberately derives from :class:`VaseError`.
"""

from repro._imports import deferred_exports
from repro.diagnostics import VaseError

__version__ = "1.0.0"

# Resolved on first use, so importing the package (as every ``vase``
# command does) loads neither the flow nor numpy; see DESIGN.md,
# "Import layering".
__getattr__, __dir__ = deferred_exports(
    globals(),
    {
        "CompilerOptions": "repro.compiler",
        "compile_design": "repro.compiler",
        "EquivalenceReport": "repro.verify",
        "verify_equivalence": "repro.verify",
        "FlowOptions": "repro.flow",
        "SynthesisResult": "repro.flow",
        "synthesize": "repro.flow",
        "Tracer": "repro.instrument",
        "metrics": "repro.instrument",
        "trace_phase": "repro.instrument",
        "tracing": "repro.instrument",
        "ParallelOptions": "repro.pipeline",
        "analyze_source": "repro.vass",
        "parse_source": "repro.vass",
    },
)

__all__ = [
    "CompilerOptions",
    "EquivalenceReport",
    "FlowOptions",
    "ParallelOptions",
    "SynthesisResult",
    "Tracer",
    "VaseError",
    "analyze_source",
    "compile_design",
    "metrics",
    "parse_source",
    "synthesize",
    "trace_phase",
    "tracing",
    "verify_equivalence",
    "__version__",
]
