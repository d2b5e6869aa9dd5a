"""The acquisition part of a programmable power-meter ASIC (Table 1 row 2).

Reconstructed from the description of [18] (Garverick et al., JSSC
1991): the acquisition front end samples two sensor channels — a
voltage-sense and a current-sense input — converts each to digital data
on the sampling strobe, and detects each channel's polarity with
zero-cross detectors (power metering needs the signed product).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flow import FlowOptions, SynthesisResult

PAPER_ROW = {
    "vass_continuous": 8,
    "vass_quantities": 6,
    "vass_event": 3,
    "vass_signals": 3,
    "vhif_blocks": 6,
    "vhif_states": 2,
    "vhif_datapath": 2,
    "components": "2 zero-cross det., 2 S/H, 2 ADC",
}

VASS_SOURCE = """
-- Acquisition part of a programmable mixed-signal power meter [18].
ENTITY power_meter IS
PORT (
  QUANTITY vsense : IN real IS voltage RANGE -2.0 TO 2.0;
  QUANTITY isense : IN real IS current RANGE -2.0 TO 2.0;
  SIGNAL sclk  : IN bit;
  SIGNAL vcode : OUT bit_vector(0 TO 7);
  SIGNAL icode : OUT bit_vector(0 TO 7);
  SIGNAL vsign : OUT bit;
  SIGNAL isign : OUT bit
);
END ENTITY;

ARCHITECTURE acquisition OF power_meter IS
  CONSTANT Vzero : real := 0.0;
BEGIN
  -- Sampling and conversion of both channels on the strobe.
  PROCESS (sclk) IS
  BEGIN
    IF (sclk = '1') THEN
      vcode <= vsense;
      icode <= isense;
    END IF;
  END PROCESS;

  -- Polarity detection for the signed power computation.
  PROCESS (vsense'ABOVE(Vzero), isense'ABOVE(Vzero)) IS
  BEGIN
    IF (vsense'ABOVE(Vzero) = TRUE)
    THEN vsign <= '1';
    ELSE vsign <= '0';
    END IF;
    IF (isense'ABOVE(Vzero) = TRUE)
    THEN isign <= '1';
    ELSE isign <= '0';
    END IF;
  END PROCESS;
END ARCHITECTURE;
"""


def synthesize_power_meter(options: FlowOptions = None) -> SynthesisResult:
    """Run the full flow on the power-meter specification."""
    from repro.flow import synthesize

    return synthesize(VASS_SOURCE, options=options)


def mains_waves(freq_hz: float = 50.0, phase: float = 0.4):
    """Representative mains voltage/current test stimuli."""
    omega = 2.0 * math.pi * freq_hz
    return {
        "vsense": lambda t: 1.5 * math.sin(omega * t),
        "isense": lambda t: 0.8 * math.sin(omega * t - phase),
    }
