"""A second-order (biquad) low-pass filter: the paper's filter use case.

Section 3 of the paper motivates the declarative style with filters:
"Typically, the behavior of filters is expressed as transfer functions
... Instead, we could describe signal properties along the signal path,
i.e. frequency ranges, and let the synthesis tool infer an appropriate
filter type."

This application specifies the state-variable (two-integrator-loop)
realization of::

    H(s) = w0^2 / (s^2 + (w0/Q) s + w0^2)

as an implicit DAE set.  The compiler causalizes the two states into
integrators, the mapper fuses each input network into a summing
integrator (the classic Tow-Thomas structure), and the AC analysis of
the elaborated circuit shows the Butterworth response.  The port's
``FREQUENCY`` annotation propagates into the op-amp specifications
through the flow's derived constraints.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flow import FlowOptions, SynthesisResult

#: filter corner frequency and quality factor used by the specification
F0_HZ = 1000.0
Q = 0.707  # Butterworth

PAPER_ROW = {
    "components": "2 integ., 1 amplif. (state-variable biquad)",
}

VASS_SOURCE = f"""
-- Second-order low-pass filter, state-variable form.
ENTITY biquad_filter IS
PORT (
  QUANTITY vin : IN real IS voltage FREQUENCY 0.0 TO {F0_HZ:.1f}
                 RANGE -1.0 TO 1.0;
  QUANTITY vlp : OUT real IS voltage
);
END ENTITY;

ARCHITECTURE state_variable OF biquad_filter IS
  CONSTANT w0 : real := {2.0 * math.pi * F0_HZ:.6f};
  CONSTANT q  : real := {Q};
  QUANTITY xbp : real := 0.0;  -- band-pass state
  QUANTITY xlp : real := 0.0;  -- low-pass state
BEGIN
  xbp'dot == w0 * (vin - xbp / q - xlp);
  xlp'dot == w0 * xbp;
  vlp == xlp;
END ARCHITECTURE;
"""


def synthesize_biquad(options: FlowOptions = None) -> SynthesisResult:
    """Run the full flow on the biquad specification."""
    from repro.flow import synthesize

    return synthesize(VASS_SOURCE, options=options)


def reference_magnitude(f_hz: float) -> float:
    """|H(j 2 pi f)| of the ideal transfer function."""
    w0 = 2.0 * math.pi * F0_HZ
    s = 1j * 2.0 * math.pi * f_hz
    h = w0 ** 2 / (s ** 2 + (w0 / Q) * s + w0 ** 2)
    return abs(h)
