"""Small-signal AC analysis for the MNA substrate.

Complements the transient engine with frequency-domain analysis: the
circuit is linearized about its DC operating point and solved with
complex phasors over a frequency sweep — SPICE's ``.AC`` analysis.
Used to verify filter responses and op-amp macromodel bandwidth.

Nonlinear elements are linearized at the operating point:

* :class:`~repro.spice.mna.SaturatingVcvs` becomes a VCVS with the
  tanh's local slope;
* :class:`~repro.spice.mna.FunctionSource` becomes a linear combination
  of its inputs with the numeric partial derivatives;
* switches take their operating-point state (on/off resistance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.diagnostics import SimulationError
from repro.instrument import metrics, trace_phase
from repro.robust.guards import check_finite
from repro.spice.linalg import AnalysisGuard
from repro.spice.mna import (
    Capacitor,
    Circuit,
    CurrentSource,
    FunctionSource,
    MnaSolver,
    Resistor,
    SaturatingVcvs,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)


@dataclass
class AcResult:
    """Complex node voltages over the swept frequencies."""

    frequencies: np.ndarray
    voltages: Dict[str, np.ndarray]

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.voltages[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(self.magnitude(node), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.voltages[node]))

    def cutoff_frequency(self, node: str, drop_db: float = 3.0) -> float:
        """Frequency where the response falls ``drop_db`` below its
        low-frequency value (log-interpolated between sweep points)."""
        mags = self.magnitude_db(node)
        reference = mags[0]
        target = reference - drop_db
        below = np.nonzero(mags <= target)[0]
        if len(below) == 0:
            return float("inf")
        index = int(below[0])
        if index == 0:
            return float(self.frequencies[0])
        f0, f1 = self.frequencies[index - 1], self.frequencies[index]
        m0, m1 = mags[index - 1], mags[index]
        if m1 == m0:
            return float(f1)
        fraction = (target - m0) / (m1 - m0)
        return float(10 ** (
            math.log10(f0) + fraction * (math.log10(f1) - math.log10(f0))
        ))

    def peak_frequency(self, node: str) -> float:
        """Frequency of the magnitude peak (resonance detection)."""
        mags = self.magnitude(node)
        return float(self.frequencies[int(np.argmax(mags))])


class AcSolver:
    """Linearized frequency-domain solver over one :class:`Circuit`."""

    def __init__(self, circuit: Circuit, ac_source: Optional[str] = None):
        """``ac_source`` names the voltage source carrying the 1 V AC
        stimulus; by default the first voltage source is used."""
        self.circuit = circuit
        self._mna = MnaSolver(circuit)
        self._size = self._mna._size
        self._operating_point = None
        sources = [
            e for e in circuit.elements if isinstance(e, VoltageSource)
        ]
        if not sources:
            raise SimulationError("AC analysis needs a voltage source")
        if ac_source is None:
            self.ac_source = sources[0].name
        else:
            if not any(s.name == ac_source for s in sources):
                raise SimulationError(
                    f"no voltage source named {ac_source!r}"
                )
            self.ac_source = ac_source

    # -- operating point -----------------------------------------------------

    def _bias(self) -> np.ndarray:
        if self._operating_point is None:
            op = self._mna._newton(
                np.zeros(self._size), 0.0, None, None, None
            )
            self._operating_point = op
        return self._operating_point

    def _voltage_at(self, x: np.ndarray, node: str) -> float:
        index = self._mna._index(node)
        return 0.0 if index < 0 else float(x[index])

    # -- stamping -------------------------------------------------------------

    def _assemble_parts(
        self, bias: np.ndarray
    ) -> tuple:
        """The ω-independent parts of the AC system.

        Every stamp except the capacitor's is frequency-independent, so
        the system factors as ``A(ω) = G + jω·C`` with one shared
        right-hand side ``b`` — assembled once per sweep instead of once
        per frequency point.
        """
        size = self._size
        G = np.zeros((size, size))
        C = np.zeros((size, size))
        b = np.zeros(size, dtype=complex)
        for i in range(self._mna._n):
            G[i, i] += self._mna.gmin

        idx = self._mna._index

        def stamp(matrix, i, j, value):
            if i >= 0 and j >= 0:
                matrix[i, j] += value

        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                g = 1.0 / element.resistance
                i, j = idx(element.n1), idx(element.n2)
                stamp(G, i, i, g)
                stamp(G, j, j, g)
                stamp(G, i, j, -g)
                stamp(G, j, i, -g)
            elif isinstance(element, Switch):
                vc = self._voltage_at(bias, element.control)
                on = vc > element.threshold
                if element.invert:
                    on = not on
                g = 1.0 / (element.ron if on else element.roff)
                i, j = idx(element.n1), idx(element.n2)
                stamp(G, i, i, g)
                stamp(G, j, j, g)
                stamp(G, i, j, -g)
                stamp(G, j, i, -g)
            elif isinstance(element, Capacitor):
                c = element.capacitance
                i, j = idx(element.n1), idx(element.n2)
                stamp(C, i, i, c)
                stamp(C, j, j, c)
                stamp(C, i, j, -c)
                stamp(C, j, i, -c)
            elif isinstance(element, CurrentSource):
                continue  # independent sources are quiet in AC
            elif isinstance(element, VoltageSource):
                i, j = idx(element.npos), idx(element.nneg)
                k = element.branch_index
                stamp(G, i, k, 1.0)
                stamp(G, j, k, -1.0)
                stamp(G, k, i, 1.0)
                stamp(G, k, j, -1.0)
                if element.name == self.ac_source:
                    b[k] += 1.0  # 1 V AC stimulus
            elif isinstance(element, Vcvs):
                i, j = idx(element.npos), idx(element.nneg)
                ci, cj = idx(element.cpos), idx(element.cneg)
                k = element.branch_index
                stamp(G, i, k, 1.0)
                stamp(G, j, k, -1.0)
                stamp(G, k, i, 1.0)
                stamp(G, k, j, -1.0)
                stamp(G, k, ci, -element.gain)
                stamp(G, k, cj, element.gain)
            elif isinstance(element, Vccs):
                i, j = idx(element.npos), idx(element.nneg)
                ci, cj = idx(element.cpos), idx(element.cneg)
                stamp(G, i, ci, element.gm)
                stamp(G, i, cj, -element.gm)
                stamp(G, j, ci, -element.gm)
                stamp(G, j, cj, element.gm)
            elif isinstance(element, SaturatingVcvs):
                i, j = idx(element.npos), idx(element.nneg)
                ci, cj = idx(element.cpos), idx(element.cneg)
                k = element.branch_index
                vc = self._voltage_at(bias, element.cpos) - self._voltage_at(
                    bias, element.cneg
                )
                slope = element.derivative(vc)
                stamp(G, i, k, 1.0)
                stamp(G, j, k, -1.0)
                stamp(G, k, i, 1.0)
                stamp(G, k, j, -1.0)
                stamp(G, k, ci, -slope)
                stamp(G, k, cj, slope)
            elif isinstance(element, FunctionSource):
                out = idx(element.nout)
                k = element.branch_index
                values = [
                    self._voltage_at(bias, n) for n in element.inputs
                ]
                grads = element.partials(values)
                stamp(G, out, k, 1.0)
                stamp(G, k, out, 1.0)
                for node, grad in zip(element.inputs, grads):
                    stamp(G, k, idx(node), -grad)
            else:  # pragma: no cover - defensive
                raise SimulationError(
                    f"AC analysis cannot stamp {type(element).__name__}"
                )
        return G, C, b

    # -- sweep ------------------------------------------------------------------

    def _solve_grid(
        self,
        guard: AnalysisGuard,
        frequencies: np.ndarray,
        A_stack: np.ndarray,
        b: np.ndarray,
    ) -> np.ndarray:
        """All frequency points' solutions, ``(n_points, n)``.

        The whole ``(m, n, n)`` stack is factorized in one LAPACK call.
        When a point is singular the stacked call cannot say which, so
        the first point whose LU has a zero pivot (``slogdet`` sign 0)
        is located and named in the error — the same message a solve
        of that point alone would raise.
        """
        registry = metrics()
        A_stack = guard.inject_fault(A_stack)
        # The shared RHS is broadcast to a stack of (n, 1) column
        # matrices: unambiguous under both numpy RHS-interpretation
        # rules (a 2-D b would be read as one matrix, not a stack).
        rhs = np.broadcast_to(
            b[:, np.newaxis], (A_stack.shape[0], b.shape[-1], 1)
        )
        try:
            solutions = np.linalg.solve(A_stack, rhs)[..., 0]
        except np.linalg.LinAlgError as err:
            registry.inc("spice.mna.factorization_failures")
            k = np.flatnonzero(np.linalg.slogdet(A_stack)[0] == 0)[0]
            raise guard.singular_error(
                A_stack[k], err, where=f" at {frequencies[k]} Hz"
            )
        registry.inc("spice.mna.factorizations", len(frequencies))
        guard.check_condition(A_stack[0])
        return solutions

    def sweep(
        self,
        f_start: float,
        f_stop: float,
        points_per_decade: int = 20,
        probes: Optional[Sequence[str]] = None,
    ) -> AcResult:
        """Logarithmic frequency sweep (SPICE ``.AC DEC``)."""
        if f_start <= 0 or f_stop <= f_start:
            raise SimulationError("need 0 < f_start < f_stop")
        names = probes if probes is not None else self.circuit.node_names
        for name in names:
            if name not in self.circuit._nodes:
                raise SimulationError(f"unknown probe node {name!r}")
        decades = math.log10(f_stop / f_start)
        n_points = max(2, int(round(decades * points_per_decade)) + 1)
        frequencies = np.logspace(
            math.log10(f_start), math.log10(f_stop), n_points
        )
        bias = self._bias()
        G, C, b = self._assemble_parts(bias)
        with trace_phase("spice.ac_sweep", points=n_points):
            omegas = 2.0 * math.pi * frequencies
            A_stack = (
                G[np.newaxis, :, :]
                + (1j * omegas)[:, np.newaxis, np.newaxis]
                * C[np.newaxis, :, :]
            )
            registry = metrics()
            registry.inc("spice.ac.sweeps")
            registry.inc("spice.ac.points", n_points)
            guard = AnalysisGuard(
                system="AC",
                title=self.circuit.title,
                labels=self._mna.unknown_labels,
                fault_site="spice.ac.singular",
                condition_text="the response may be numerically meaningless",
            )
            solutions = self._solve_grid(guard, frequencies, A_stack, b)
            for i, f in enumerate(frequencies):
                bad = check_finite(solutions[i], self._mna.unknown_labels)
                if bad is not None:
                    raise SimulationError(
                        f"non-finite AC solution at {f} Hz: "
                        f"{', '.join(bad)} went NaN/Inf"
                    )
        return AcResult(
            frequencies=frequencies,
            voltages={
                name: solutions[:, self._mna._index(name)].copy()
                for name in names
            },
        )


def ac_sweep(
    circuit: Circuit,
    f_start: float,
    f_stop: float,
    points_per_decade: int = 20,
    probes: Optional[Sequence[str]] = None,
    ac_source: Optional[str] = None,
) -> AcResult:
    """One-call AC analysis."""
    return AcSolver(circuit, ac_source=ac_source).sweep(
        f_start, f_stop, points_per_decade=points_per_decade, probes=probes
    )
