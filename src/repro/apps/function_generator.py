"""The ramp-signal function generator (Table 1 row 5).

Reconstructed from the example of Grimm & Waldschmidt [6]: a triangle /
ramp generator built from an integrator whose slope input is switched
between +Vref and -Vref by a direction control.  The event-driven part
flips the direction when the ramp crosses the high or low threshold —
exactly the structure the paper's synthesis realizes with one
integrator, one analog MUX and one Schmitt trigger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flow import FlowOptions, SynthesisResult

PAPER_ROW = {
    "vass_continuous": 2,
    "vass_quantities": 2,
    "vass_event": 4,
    "vass_signals": 3,
    "vhif_blocks": 4,
    "vhif_states": 2,
    "vhif_datapath": 1,
    "components": "1 integ., 1 MUX, 1 Schmitt trigger",
}

#: thresholds / slope used by the specification
V_HIGH = 1.0
V_LOW = -1.0
SLOPE = 4000.0  # volts per second at Vref = 1

VASS_SOURCE = """
-- Ramp (triangle) signal generator after Grimm/Waldschmidt [6].
ENTITY function_generator IS
PORT (
  QUANTITY ramp : OUT real IS voltage RANGE -1.0 TO 1.0
);
END ENTITY;

ARCHITECTURE oscillator OF function_generator IS
  CONSTANT vhi    : real := 1.0;
  CONSTANT vlo    : real := -1.0;
  CONSTANT vrefp  : real := 1.0;
  CONSTANT vrefn  : real := -1.0;
  CONSTANT slope  : real := 4000.0;
  QUANTITY vsel : real;
  SIGNAL dir : bit;
BEGIN
  ramp'dot == slope * vsel;

  IF (dir = '1') USE
    vsel == vrefp;
  ELSE
    vsel == vrefn;
  END USE;

  PROCESS (ramp'ABOVE(vhi), ramp'ABOVE(vlo)) IS
  BEGIN
    IF (ramp'ABOVE(vhi) = TRUE) THEN
      dir <= '0';
    ELSIF (ramp'ABOVE(vlo) = FALSE) THEN
      dir <= '1';
    END IF;
  END PROCESS;
END ARCHITECTURE;
"""


def synthesize_function_generator(
    options: FlowOptions = None,
) -> SynthesisResult:
    """Run the full flow on the function-generator specification."""
    from repro.flow import synthesize

    return synthesize(VASS_SOURCE, options=options)


def expected_period() -> float:
    """Oscillation period of the ideal triangle wave, seconds."""
    swing = V_HIGH - V_LOW
    return 2.0 * swing / SLOPE
