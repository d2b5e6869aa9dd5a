"""The missile equation solver (Table 1 row 3): a nonlinear ODE set.

Reconstructed from the application class described in [2]: an analog
computer for one-dimensional missile flight — velocity driven by thrust
against aerodynamic drag, altitude integrating velocity.  The drag term
``cd * v**1.8`` is computed through the log/antilog pair (the reason the
paper's synthesis result contains a log amplifier and an anti-log
amplifier) and the power is expressed with ``log``/``exp`` explicitly so
the continuous-time part is a pure DAE set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flow import FlowOptions, SynthesisResult

PAPER_ROW = {
    "vass_continuous": 4,
    "vass_quantities": 9,
    "vass_event": 0,
    "vass_signals": 0,
    "vhif_blocks": 13,
    "vhif_states": 0,
    "vhif_datapath": 0,
    "components": "2 integ., 1 anti-log.amplif., 4 amplif., 1 log.amplif. (reduced)",
}

VASS_SOURCE = """
-- One-dimensional missile flight solver: m v' = thrust - drag - m g,
-- h' = v, drag = cd * (v + v0) ** beta through the log/antilog pair.
ENTITY missile_solver IS
PORT (
  QUANTITY thrust : IN real IS voltage RANGE 0.0 TO 3.5;
  QUANTITY vel    : OUT real IS voltage;
  QUANTITY alt    : OUT real IS voltage
);
END ENTITY;

ARCHITECTURE equations OF missile_solver IS
  CONSTANT m    : real := 2.0;    -- mass (scaled units)
  CONSTANT g    : real := 0.5;    -- gravity (scaled)
  CONSTANT cd   : real := 0.05;   -- drag coefficient
  CONSTANT beta : real := 1.8;    -- drag exponent
  CONSTANT v0   : real := 0.1;    -- keeps the log argument positive
  CONSTANT kh   : real := 0.2;    -- altitude output scaling
  QUANTITY v    : real := 0.0;
  QUANTITY h    : real := 0.0;
  QUANTITY drag : real;
BEGIN
  m * v'dot == thrust - drag - m * g;
  drag == cd * exp(beta * log(v + v0));
  h'dot == kh * v;
  vel == v;
  alt == h;
END ARCHITECTURE;
"""


def synthesize_missile_solver(options: FlowOptions = None) -> SynthesisResult:
    """Run the full flow on the missile-solver specification."""
    from repro.flow import synthesize

    return synthesize(VASS_SOURCE, options=options)


def reference_trajectory(thrust: float, t_end: float, dt: float):
    """Pure-python reference integration of the same equations.

    Used by tests to check the compiled signal-flow solver against the
    mathematical model (forward Euler, same step as the interpreter).
    """
    m, g, cd, beta, v0, kh = 2.0, 0.5, 0.05, 1.8, 0.1, 0.2
    v = h = 0.0
    t = 0.0
    while t < t_end - dt / 2:
        drag = cd * (v + v0) ** beta
        dv = (thrust - drag - m * g) / m
        v += dv * dt
        h += kh * v * dt
        t += dt
    return v, h
