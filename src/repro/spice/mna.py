"""A small SPICE-class circuit simulator (modified nodal analysis).

Substitute for the Berkeley SPICE runs of the paper's Section 6: the
synthesized net-lists are elaborated into R/C/source/op-amp-macromodel
circuits and simulated in the time domain.

Engine features:

* elements: resistors, capacitors, independent V/I sources (DC, SIN,
  PULSE, PWL and arbitrary Python waveforms), VCVS, VCCS, saturating
  (tanh) VCVS for op-amp macromodels, arbitrary nonlinear function
  sources (for multiplier/log/antilog cores), and control-driven
  switches;
* DC operating point by Newton-Raphson;
* transient analysis by backward-Euler companion models with Newton
  iteration per step (A-stable, no ringing on the switching edges the
  synthesized circuits produce).

Node names are strings; ``"0"`` and ``"gnd"`` are ground.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.diagnostics import SimulationError
from repro.robust.faultinject import fault_active
from repro.robust.guards import check_finite
from repro.spice.linalg import AnalysisGuard, guarded_solve

if TYPE_CHECKING:
    import numpy as np

GROUND_NAMES = ("0", "gnd", "ground")

Waveform = Callable[[float], float]


def dc(value: float) -> Waveform:
    """Constant source."""
    return lambda t: value


def sin_wave(
    amplitude: float, freq_hz: float, offset: float = 0.0, phase: float = 0.0
) -> Waveform:
    """SPICE SIN() source."""
    omega = 2.0 * math.pi * freq_hz
    return lambda t: offset + amplitude * math.sin(omega * t + phase)


def pulse_wave(
    v1: float,
    v2: float,
    delay: float,
    rise: float,
    fall: float,
    width: float,
    period: float,
) -> Waveform:
    """SPICE PULSE() source."""

    def value(t: float) -> float:
        if t < delay:
            return v1
        phase = (t - delay) % period
        if phase < rise:
            return v1 + (v2 - v1) * phase / max(rise, 1e-15)
        if phase < rise + width:
            return v2
        if phase < rise + width + fall:
            return v2 + (v1 - v2) * (phase - rise - width) / max(fall, 1e-15)
        return v1

    return value


def pwl_wave(points: Sequence[Tuple[float, float]]) -> Waveform:
    """SPICE PWL() source."""
    pts = sorted(points)

    def value(t: float) -> float:
        if t <= pts[0][0]:
            return pts[0][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                if t1 == t0:
                    return v1
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]

    return value


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


@dataclass
class _Element:
    name: str


@dataclass
class Resistor(_Element):
    n1: str
    n2: str
    resistance: float


@dataclass
class Capacitor(_Element):
    n1: str
    n2: str
    capacitance: float
    ic: float = 0.0


@dataclass
class VoltageSource(_Element):
    npos: str
    nneg: str
    waveform: Waveform
    branch_index: int = -1


@dataclass
class CurrentSource(_Element):
    npos: str
    nneg: str
    waveform: Waveform


@dataclass
class Vcvs(_Element):
    """E element: v(npos,nneg) = gain * v(cpos,cneg)."""

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gain: float
    branch_index: int = -1


@dataclass
class Vccs(_Element):
    """G element: i(npos->nneg) = gm * v(cpos,cneg)."""

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gm: float


@dataclass
class SaturatingVcvs(_Element):
    """Op-amp gain stage: v_out = vmax * tanh(gain * v_c / vmax).

    Smoothly limits at ±vmax; the tanh derivative keeps Newton stable.
    """

    npos: str
    nneg: str
    cpos: str
    cneg: str
    gain: float
    vmax: float
    branch_index: int = -1

    def value(self, vc: float) -> float:
        return self.vmax * math.tanh(self.gain * vc / self.vmax)

    def derivative(self, vc: float) -> float:
        x = self.gain * vc / self.vmax
        if abs(x) > 40.0:
            return 1e-9
        sech2 = 1.0 / math.cosh(x) ** 2
        return max(self.gain * sech2, 1e-9)


@dataclass
class FunctionSource(_Element):
    """Grounded voltage source computing v_out = fn(v(inputs...)).

    Used for translinear cores (multiplier, divider, log, antilog) and
    comparator decision functions.  Jacobian entries come from numeric
    differentiation; functions should be smooth (use tanh, not step).
    """

    nout: str
    inputs: List[str]
    fn: Callable[..., float]
    branch_index: int = -1

    def value(self, values: Sequence[float]) -> float:
        return float(self.fn(*values))

    def partials(self, values: Sequence[float]) -> List[float]:
        base = self.value(values)
        grads: List[float] = []
        for i in range(len(values)):
            step = 1e-6 * max(abs(values[i]), 1.0)
            bumped = list(values)
            bumped[i] += step
            grads.append((self.value(bumped) - base) / step)
        return grads


@dataclass
class Switch(_Element):
    """Voltage-controlled switch: R = ron when v(c) > threshold else roff.

    The control voltage is sampled from the *previous* Newton solution /
    time step, which keeps the conductance matrix constant within a step
    (no discontinuity inside the Newton loop).
    """

    n1: str
    n2: str
    control: str
    threshold: float = 0.5
    ron: float = 100.0
    roff: float = 1.0e9
    invert: bool = False


# ---------------------------------------------------------------------------
# Circuit
# ---------------------------------------------------------------------------


class Circuit:
    """An MNA circuit under construction."""

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._elements: List[_Element] = []
        self._nodes: Dict[str, int] = {}
        self._names: set = set()

    # -- construction -------------------------------------------------------

    def _node(self, name: str) -> int:
        if name.lower() in GROUND_NAMES:
            return -1
        index = self._nodes.get(name)
        if index is None:
            index = len(self._nodes)
            self._nodes[name] = index
        return index

    def _register(self, element: _Element) -> None:
        if element.name in self._names:
            raise SimulationError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self._elements.append(element)

    def resistor(self, name: str, n1: str, n2: str, resistance: float) -> None:
        if resistance <= 0:
            raise SimulationError(f"resistor {name!r} must be positive")
        self._node(n1), self._node(n2)
        self._register(Resistor(name, n1, n2, resistance))

    def capacitor(
        self, name: str, n1: str, n2: str, capacitance: float, ic: float = 0.0
    ) -> None:
        if capacitance <= 0:
            raise SimulationError(f"capacitor {name!r} must be positive")
        self._node(n1), self._node(n2)
        self._register(Capacitor(name, n1, n2, capacitance, ic))

    def vsource(self, name: str, npos: str, nneg: str, waveform) -> None:
        if not callable(waveform):
            waveform = dc(float(waveform))
        self._node(npos), self._node(nneg)
        self._register(VoltageSource(name, npos, nneg, waveform))

    def isource(self, name: str, npos: str, nneg: str, waveform) -> None:
        if not callable(waveform):
            waveform = dc(float(waveform))
        self._node(npos), self._node(nneg)
        self._register(CurrentSource(name, npos, nneg, waveform))

    def vcvs(
        self, name: str, npos: str, nneg: str, cpos: str, cneg: str, gain: float
    ) -> None:
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(Vcvs(name, npos, nneg, cpos, cneg, gain))

    def vccs(
        self, name: str, npos: str, nneg: str, cpos: str, cneg: str, gm: float
    ) -> None:
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(Vccs(name, npos, nneg, cpos, cneg, gm))

    def saturating_vcvs(
        self,
        name: str,
        npos: str,
        nneg: str,
        cpos: str,
        cneg: str,
        gain: float,
        vmax: float,
    ) -> None:
        for n in (npos, nneg, cpos, cneg):
            self._node(n)
        self._register(SaturatingVcvs(name, npos, nneg, cpos, cneg, gain, vmax))

    def function_source(
        self, name: str, nout: str, inputs: Sequence[str], fn
    ) -> None:
        self._node(nout)
        for n in inputs:
            self._node(n)
        self._register(FunctionSource(name, nout, list(inputs), fn))

    def switch(
        self,
        name: str,
        n1: str,
        n2: str,
        control: str,
        threshold: float = 0.5,
        ron: float = 100.0,
        roff: float = 1.0e9,
        invert: bool = False,
    ) -> None:
        self._node(n1), self._node(n2), self._node(control)
        self._register(Switch(name, n1, n2, control, threshold, ron, roff, invert))

    # -- queries --------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return sorted(self._nodes, key=self._nodes.get)  # type: ignore[arg-type]

    @property
    def elements(self) -> List[_Element]:
        return list(self._elements)

    def n_nodes(self) -> int:
        return len(self._nodes)


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


@dataclass
class TransientResult:
    """Node voltages over time."""

    time: np.ndarray
    voltages: Dict[str, np.ndarray]

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]

    def final(self, node: str) -> float:
        return float(self.voltages[node][-1])


class MnaSolver:
    """Assembles and solves the MNA system of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit, gmin: float = 1e-12):
        self.circuit = circuit
        self.gmin = gmin
        self._n = circuit.n_nodes()
        # Assign branch currents to every voltage-defining element.
        self._branches = 0
        branch_labels: List[str] = []
        for element in circuit.elements:
            if isinstance(
                element, (VoltageSource, Vcvs, SaturatingVcvs, FunctionSource)
            ):
                element.branch_index = self._n + self._branches
                self._branches += 1
                branch_labels.append(f"i({element.name})")
        self._size = self._n + self._branches
        #: human-readable label of every MNA unknown, in matrix order:
        #: node voltages first, then branch currents — used to name
        #: suspects in singular-matrix and non-finite errors.
        self.unknown_labels: List[str] = [
            f"v({name})" for name in circuit.node_names
        ] + branch_labels
        #: the numerical-guard boundary every factorization goes
        #: through: fault injection, singular-suspect naming, the
        #: once-per-analysis condition estimate
        self._guard = AnalysisGuard(
            system="MNA",
            title=circuit.title,
            labels=self.unknown_labels,
            fault_site="spice.singular",
            condition_text="voltages may be numerically meaningless",
        )

    # -- helpers -----------------------------------------------------------------

    def _index(self, node: str) -> int:
        if node.lower() in GROUND_NAMES:
            return -1
        return self.circuit._nodes[node]

    @staticmethod
    def _stamp(matrix: np.ndarray, i: int, j: int, value: float) -> None:
        if i >= 0 and j >= 0:
            matrix[i, j] += value

    @staticmethod
    def _stamp_rhs(rhs: np.ndarray, i: int, value: float) -> None:
        if i >= 0:
            rhs[i] += value

    def _voltage(self, x: np.ndarray, node: str) -> float:
        index = self._index(node)
        return 0.0 if index < 0 else float(x[index])

    def _check_solution_finite(
        self, x: np.ndarray, t: Optional[float] = None
    ) -> None:
        """Raise a located error when the solution went NaN/Inf."""
        if fault_active("spice.nonfinite") and x.size:
            # Fault injection: corrupt the first unknown so detection
            # runs through the real guard path.
            x = x.copy()
            x[0] = math.nan
        bad = check_finite(x, self.unknown_labels)
        if bad is None:
            return
        where = f" at t={t:g} s" if t is not None else " at DC"
        raise SimulationError(
            f"non-finite solution{where}: {', '.join(bad)} went NaN/Inf "
            "(check element values and source waveforms)"
        )

    # -- system assembly ------------------------------------------------------------

    def _assemble(
        self,
        x: np.ndarray,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np

        size = self._size
        A = np.zeros((size, size))
        b = np.zeros(size)
        for i in range(self._n):
            A[i, i] += self.gmin

        control_state = switch_controls if switch_controls is not None else x

        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                g = 1.0 / element.resistance
                i, j = self._index(element.n1), self._index(element.n2)
                self._stamp(A, i, i, g)
                self._stamp(A, j, j, g)
                self._stamp(A, i, j, -g)
                self._stamp(A, j, i, -g)
            elif isinstance(element, Switch):
                vc = (
                    self._voltage(control_state, element.control)
                    if control_state is not None
                    else 0.0
                )
                on = vc > element.threshold
                if element.invert:
                    on = not on
                g = 1.0 / (element.ron if on else element.roff)
                i, j = self._index(element.n1), self._index(element.n2)
                self._stamp(A, i, i, g)
                self._stamp(A, j, j, g)
                self._stamp(A, i, j, -g)
                self._stamp(A, j, i, -g)
            elif isinstance(element, Capacitor):
                i, j = self._index(element.n1), self._index(element.n2)
                if dt is None:
                    continue  # open circuit at DC
                g = element.capacitance / dt
                v_prev = 0.0
                if prev is not None:
                    v_prev = (0.0 if i < 0 else prev[i]) - (
                        0.0 if j < 0 else prev[j]
                    )
                else:
                    v_prev = element.ic
                self._stamp(A, i, i, g)
                self._stamp(A, j, j, g)
                self._stamp(A, i, j, -g)
                self._stamp(A, j, i, -g)
                self._stamp_rhs(b, i, g * v_prev)
                self._stamp_rhs(b, j, -g * v_prev)
            elif isinstance(element, CurrentSource):
                value = element.waveform(t)
                i, j = self._index(element.npos), self._index(element.nneg)
                self._stamp_rhs(b, i, -value)
                self._stamp_rhs(b, j, value)
            elif isinstance(element, VoltageSource):
                i, j = self._index(element.npos), self._index(element.nneg)
                k = element.branch_index
                self._stamp(A, i, k, 1.0)
                self._stamp(A, j, k, -1.0)
                self._stamp(A, k, i, 1.0)
                self._stamp(A, k, j, -1.0)
                b[k] += element.waveform(t)
            elif isinstance(element, Vcvs):
                i, j = self._index(element.npos), self._index(element.nneg)
                ci, cj = self._index(element.cpos), self._index(element.cneg)
                k = element.branch_index
                self._stamp(A, i, k, 1.0)
                self._stamp(A, j, k, -1.0)
                self._stamp(A, k, i, 1.0)
                self._stamp(A, k, j, -1.0)
                self._stamp(A, k, ci, -element.gain)
                self._stamp(A, k, cj, element.gain)
            elif isinstance(element, Vccs):
                i, j = self._index(element.npos), self._index(element.nneg)
                ci, cj = self._index(element.cpos), self._index(element.cneg)
                self._stamp(A, i, ci, element.gm)
                self._stamp(A, i, cj, -element.gm)
                self._stamp(A, j, ci, -element.gm)
                self._stamp(A, j, cj, element.gm)
            elif isinstance(element, SaturatingVcvs):
                i, j = self._index(element.npos), self._index(element.nneg)
                ci, cj = self._index(element.cpos), self._index(element.cneg)
                k = element.branch_index
                vc = (0.0 if ci < 0 else x[ci]) - (0.0 if cj < 0 else x[cj])
                f = element.value(vc)
                df = element.derivative(vc)
                # v(out) = f(vc0) + df*(vc - vc0)  (Newton linearization)
                self._stamp(A, i, k, 1.0)
                self._stamp(A, j, k, -1.0)
                self._stamp(A, k, i, 1.0)
                self._stamp(A, k, j, -1.0)
                self._stamp(A, k, ci, -df)
                self._stamp(A, k, cj, df)
                b[k] += f - df * vc
            elif isinstance(element, FunctionSource):
                out = self._index(element.nout)
                k = element.branch_index
                values = [self._voltage(x, n) for n in element.inputs]
                f = element.value(values)
                grads = element.partials(values)
                self._stamp(A, out, k, 1.0)
                self._stamp(A, k, out, 1.0)
                rhs = f
                for node, grad in zip(element.inputs, grads):
                    ni = self._index(node)
                    self._stamp(A, k, ni, -grad)
                    rhs -= grad * self._voltage(x, node)
                b[k] += rhs
            else:  # pragma: no cover - defensive
                raise SimulationError(
                    f"unknown element type {type(element).__name__}"
                )
        return A, b

    def _residual_norm(
        self,
        x: np.ndarray,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
    ) -> float:
        import numpy as np

        A, b = self._assemble(x, t, dt, prev, switch_controls)
        return float(np.max(np.abs(A @ x - b))) if x.size else 0.0

    def _newton(
        self,
        x0: np.ndarray,
        t: float,
        dt: Optional[float],
        prev: Optional[np.ndarray],
        switch_controls: Optional[np.ndarray],
        max_iter: int = 80,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """Damped Newton with a residual-norm line search.

        High-gain saturating stages (tanh with A = 2e4) make plain
        Newton oscillate between the rails; backtracking on the
        residual norm keeps every accepted step a true improvement.
        """
        import numpy as np

        x = x0.copy()
        if not x.size:
            return x
        residual = self._residual_norm(x, t, dt, prev, switch_controls)
        for _ in range(max_iter):
            A, b = self._assemble(x, t, dt, prev, switch_controls)
            # The guard boundary owns fault injection, the singular
            # error (with suspect naming), the success/failure
            # factorization counters, and the once-per-analysis
            # condition estimate.
            x_new = guarded_solve(
                A, b, self._guard, where=f" at t={t:g} s"
            )
            step = x_new - x
            delta = float(np.max(np.abs(step)))
            if delta < tol:
                return x_new
            # Backtracking line search on the residual norm.
            alpha = 1.0
            accepted = False
            for _try in range(10):
                candidate = x + alpha * step
                cand_residual = self._residual_norm(
                    candidate, t, dt, prev, switch_controls
                )
                if cand_residual <= residual * (1.0 - 1e-4 * alpha) or (
                    cand_residual < tol
                ):
                    x = candidate
                    residual = cand_residual
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                # Take the smallest step anyway to escape flat spots.
                x = x + alpha * step
                residual = self._residual_norm(
                    x, t, dt, prev, switch_controls
                )
            if residual < tol:
                return x
        return x  # best effort; tests check accuracy explicitly

    # -- public analyses ----------------------------------------------------------------

    def dc_operating_point(self) -> Dict[str, float]:
        """Newton DC solution (capacitors open)."""
        import numpy as np

        self._guard.reset()
        x = self._newton(np.zeros(self._size), 0.0, None, None, None)
        self._check_solution_finite(x)
        return {
            name: float(x[index])
            for name, index in self.circuit._nodes.items()
        }

    def transient(
        self,
        t_end: float,
        dt: float,
        probes: Optional[Sequence[str]] = None,
        x0: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Backward-Euler transient from t=0 (or from ``x0``)."""
        import numpy as np

        if dt <= 0 or t_end <= 0:
            raise SimulationError("dt and t_end must be positive")
        names = probes if probes is not None else self.circuit.node_names
        for name in names:
            if name.lower() not in GROUND_NAMES and name not in self.circuit._nodes:
                raise SimulationError(f"unknown probe node {name!r}")
        self._guard.reset()
        n_steps = int(round(t_end / dt))
        times = np.empty(n_steps)
        records: Dict[str, List[float]] = {name: [] for name in names}
        if x0 is not None:
            x = x0.copy()
        else:
            x = np.zeros(self._size)
            # Seed node voltages from capacitor initial conditions.
            for element in self.circuit.elements:
                if isinstance(element, Capacitor) and element.ic != 0.0:
                    i = self._index(element.n1)
                    j = self._index(element.n2)
                    if i >= 0 and j < 0:
                        x[i] = element.ic
                    elif j >= 0 and i < 0:
                        x[j] = -element.ic
        prev = x.copy()
        for step in range(n_steps):
            t = (step + 1) * dt
            x = self._newton(x, t, dt, prev, switch_controls=prev)
            self._check_solution_finite(x, t=t)
            times[step] = t
            for name in names:
                records[name].append(self._voltage(x, name))
            prev = x.copy()
        return TransientResult(
            time=times,
            voltages={k: np.asarray(v) for k, v in records.items()},
        )


def simulate_transient(
    circuit: Circuit,
    t_end: float,
    dt: float,
    probes: Optional[Sequence[str]] = None,
) -> TransientResult:
    """One-call transient analysis."""
    return MnaSolver(circuit).transient(t_end, dt, probes=probes)
