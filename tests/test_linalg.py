"""Tests for the guarded linear solve (repro.spice.linalg, repro.spice.ac).

Production solves each AC sweep as one stacked LAPACK call; the
per-point oracle (``tests/oracles.py``) solves the same systems one at
a time.  The bar: identical responses and identical error messages on
singular systems, with the factorization counters consistent.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPLICATIONS
from repro.diagnostics import SimulationError
from repro.flow import synthesize
from repro.instrument import metrics
from repro.robust.faultinject import inject_faults
from repro.spice import dc, elaborate
from repro.spice.ac import AcSolver, ac_sweep
from repro.spice.linalg import AnalysisGuard
from repro.spice.mna import Circuit, simulate_transient

from tests.oracles import PerPointAcSolver, oracle_ac_sweep


def rc_ladder(n_sections=5, r=1e3, c=1e-8):
    """An n-section RC ladder driven by one source."""
    circuit = Circuit()
    circuit.vsource("VIN", "n0", "0", dc(0.0))
    for i in range(n_sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", r)
        circuit.capacitor(f"C{i}", f"n{i + 1}", "0", c)
    return circuit


def random_systems(m=7, n=6, seed=11):
    """A stack of well-conditioned complex systems + one shared RHS."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    stack += n * np.eye(n)  # diagonally dominant -> well-conditioned
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return stack, b


def grid_guard(n):
    """A fresh AC guard over ``n`` unknowns."""
    return AnalysisGuard(
        system="AC",
        title="grid",
        labels=[f"v(x{i})" for i in range(n)],
        fault_site="spice.ac.singular",
        condition_text="the response may be numerically meaningless",
    )


def solve_grid(solver_class, stack, b, frequencies):
    """One grid solve through ``solver_class``'s ``_solve_grid``."""
    solver = solver_class(rc_ladder())
    return solver._solve_grid(grid_guard(len(b)), frequencies, stack, b)


class TestSolverEquivalence:
    def test_batched_matches_dense_loop(self):
        stack, b = random_systems()
        frequencies = np.logspace(1, 4, len(stack))
        stacked = solve_grid(AcSolver, stack, b, frequencies)
        per_point = solve_grid(PerPointAcSolver, stack, b, frequencies)
        assert np.allclose(stacked, per_point, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [3, 6])
    def test_singular_middle_point_is_located(self, k):
        stack, b = random_systems()
        stack[k] = 0.0
        frequencies = np.logspace(1, 4, len(stack))
        registry = metrics()
        failures_before = registry.counter(
            "spice.mna.factorization_failures"
        )
        with pytest.raises(SimulationError) as stacked:
            solve_grid(AcSolver, stack, b, frequencies)
        assert (
            registry.counter("spice.mna.factorization_failures")
            == failures_before + 1
        )
        with pytest.raises(SimulationError) as per_point:
            solve_grid(PerPointAcSolver, stack, b, frequencies)
        message = str(stacked.value)
        assert message == str(per_point.value)
        assert f"singular AC matrix at {frequencies[k]} Hz" in message


class TestAcOracleParity:
    def test_ladder_response_matches_per_point_oracle(self):
        reference = oracle_ac_sweep(
            rc_ladder(), 10.0, 1e6, points_per_decade=20, probes=["n5"]
        )
        stacked = ac_sweep(
            rc_ladder(), 10.0, 1e6, points_per_decade=20, probes=["n5"]
        )
        assert np.array_equal(reference.frequencies, stacked.frequencies)
        assert np.allclose(
            reference.voltages["n5"], stacked.voltages["n5"],
            rtol=1e-12, atol=0.0,
        )


class TestGuardParity:
    """Errors and fault injection match the per-point oracle."""

    def _singular_message(self, sweep):
        with inject_faults("spice.ac.singular"):
            with pytest.raises(SimulationError) as err:
                sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
        return str(err.value)

    def test_stacked_error_matches_per_point_oracle(self):
        oracle_message = self._singular_message(oracle_ac_sweep)
        stacked_message = self._singular_message(ac_sweep)
        assert stacked_message == oracle_message
        assert "singular AC matrix at 10.0 Hz" in stacked_message

    def test_mna_singular_fault_names_time(self):
        with inject_faults("spice.singular"):
            with pytest.raises(SimulationError, match="singular MNA"):
                simulate_transient(rc_ladder(), t_end=1e-5, dt=1e-6)


class TestFactorizationCounters:
    """Successes-only counting plus a failures counter."""

    def test_success_counts_factorizations_not_failures(self):
        registry = metrics()
        ok_before = registry.counter("spice.mna.factorizations")
        bad_before = registry.counter("spice.mna.factorization_failures")
        simulate_transient(rc_ladder(), t_end=1e-5, dt=1e-6)
        assert registry.counter("spice.mna.factorizations") > ok_before
        assert (
            registry.counter("spice.mna.factorization_failures")
            == bad_before
        )

    def test_failed_factorization_counts_failure_only(self):
        registry = metrics()
        bad_before = registry.counter("spice.mna.factorization_failures")
        with inject_faults("spice.ac.singular"):
            ok_before = registry.counter("spice.mna.factorizations")
            with pytest.raises(SimulationError):
                ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
            # The DC bias point solves fine; the AC grid fails and
            # must not land on the success counter.
            ok_after = registry.counter("spice.mna.factorizations")
        assert (
            registry.counter("spice.mna.factorization_failures")
            > bad_before
        )
        assert ok_after >= ok_before  # successes never decremented
        with inject_faults("spice.ac.singular"):
            with pytest.raises(SimulationError):
                ac_sweep(rc_ladder(), 10.0, 1e4, probes=["n5"])
            # Identical failing sweep: the success counter gained only
            # the bias-point factorizations, no AC-point successes.
            gained = (
                registry.counter("spice.mna.factorizations") - ok_after
            )
        assert gained == ok_after - ok_before


def _app_sources():
    return sorted(ALL_APPLICATIONS.items())


@pytest.mark.parametrize(
    "name,app", _app_sources(), ids=[n for n, _ in _app_sources()]
)
class TestTable1Differential:
    """Every Table-1 app: the stacked sweep matches the oracle."""

    def test_ac_matches_oracle(self, name, app):
        result = synthesize(app.VASS_SOURCE)
        in_ports = [
            p for p, info in result.design.ports.items()
            if info.direction == "in"
        ]
        out_ports = [
            p for p, info in result.design.ports.items()
            if info.direction == "out"
        ]
        if not in_ports or not out_ports:
            pytest.skip(f"{name} has no in/out port pair")
        circuit = elaborate(
            result.netlist,
            input_waves={p: dc(0.0) for p in in_ports},
        )
        probe = circuit.output_nodes[out_ports[0]]
        responses = [
            sweep(
                circuit.circuit, 10.0, 1e5, points_per_decade=10,
                probes=[probe], ac_source=f"VIN_{in_ports[0]}",
            )
            for sweep in (oracle_ac_sweep, ac_sweep)
        ]
        assert np.allclose(
            responses[0].voltages[probe],
            responses[1].voltages[probe],
            rtol=1e-12,
        ), f"{name}: stacked sweep diverged from the per-point oracle"
