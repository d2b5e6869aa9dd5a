"""The iterative equation solver (Table 1 row 4).

Reconstructed from the application class described in [2]: an analog
linear-equation solver in the classical feedback-integrator style.  Each
unknown is the output of an integrator driven by its equation's
residual; the integrators iterate continuously until the residuals
vanish, i.e. the circuit settles at the solution of::

    x + y = bx        y + z = by        z + x = bz

The event-driven part samples the solution on an external strobe into a
held output (the S/H of the paper's result) and raises ``done``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flow import FlowOptions, SynthesisResult

PAPER_ROW = {
    "vass_continuous": 1,
    "vass_quantities": 1,
    "vass_event": 4,
    "vass_signals": 2,
    "vhif_blocks": 6,
    "vhif_states": 2,
    "vhif_datapath": 2,
    "components": "3 integ., 1 S/H, 1 diff. amplif.",
}

VASS_SOURCE = """
-- Continuous-time iterative solver for a 3x3 linear system.
ENTITY iterative_solver IS
PORT (
  QUANTITY bx : IN real IS voltage;
  QUANTITY by : IN real IS voltage;
  QUANTITY bz : IN real IS voltage;
  SIGNAL strobe : IN bit;
  QUANTITY residual : OUT real IS voltage;
  SIGNAL xs   : OUT real;
  SIGNAL done : OUT bit
);
END ENTITY;

ARCHITECTURE feedback OF iterative_solver IS
  QUANTITY x : real := 0.0;
  QUANTITY y : real := 0.0;
  QUANTITY z : real := 0.0;
BEGIN
  -- Integrator feedback: each derivative is the equation residual.
  x'dot == bx - x - y;
  y'dot == by - y - z;
  z'dot == bz - z - x;
  residual == x - y;

  -- Sample the converged unknown on the strobe.
  PROCESS (strobe) IS
  BEGIN
    IF (strobe = '1') THEN
      xs   <= x;
      done <= '1';
    ELSE
      done <= '0';
    END IF;
  END PROCESS;
END ARCHITECTURE;
"""


def synthesize_iterative_solver(options: FlowOptions = None) -> SynthesisResult:
    """Run the full flow on the iterative-solver specification."""
    from repro.flow import synthesize

    return synthesize(VASS_SOURCE, options=options)


def exact_solution(bx: float, by: float, bz: float):
    """Closed-form solution of the 3x3 system, for test comparison."""
    import numpy as np

    matrix = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    rhs = np.array([bx, by, bz])
    return np.linalg.solve(matrix, rhs)
