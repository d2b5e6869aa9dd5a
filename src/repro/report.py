"""Markdown design reports for synthesized systems.

Bundles everything a reviewer would want after a synthesis run — the
specification statistics, the VHIF structure, the chosen netlist with
per-instance estimates, search-effort numbers, FSM realizations, and
(optionally) a verification verdict — into one markdown document.
Exposed on the command line as ``vase report``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.estimation import Estimator
from repro.flow import SynthesisResult
from repro.spice import to_spice_deck

if TYPE_CHECKING:
    from repro.verify import EquivalenceReport


def generate_report(
    result: SynthesisResult,
    title: Optional[str] = None,
    verification: Optional[EquivalenceReport] = None,
    include_spice: bool = True,
) -> str:
    """Render a synthesis result as a markdown report."""
    design = result.design
    netlist = result.netlist
    stats = design.statistics()
    search = result.mapping.statistics
    lines: List[str] = []

    lines.append(f"# Synthesis report — {title or design.name}")
    lines.append("")
    lines.append("## Specification and intermediate representation")
    lines.append("")
    lines.append("| metric | value |")
    lines.append("|---|---|")
    lines.append(f"| signal-flow blocks | {stats.n_blocks} |")
    lines.append(f"| FSM states | {stats.n_states} |")
    lines.append(f"| data-path elements | {stats.n_datapath} |")
    lines.append(f"| input ports | {len([p for p in design.ports.values() if p.direction == 'in'])} |")
    lines.append(f"| output ports | {len([p for p in design.ports.values() if p.direction == 'out'])} |")
    lines.append("")

    if design.ports:
        lines.append("### Port annotations")
        lines.append("")
        lines.append("| port | dir | kind | limit | drive | range | band |")
        lines.append("|---|---|---|---|---|---|---|")
        for name, info in sorted(design.ports.items()):
            drive = (
                f"{info.drive_load_ohms:g} ohm @ {info.drive_amplitude:g} V"
                if info.drive_load_ohms is not None
                else "-"
            )
            limit = f"{info.limit_level:g} V" if info.limit_level else "-"
            vrange = (
                f"{info.value_range[0]:g}..{info.value_range[1]:g} V"
                if info.value_range
                else "-"
            )
            band = (
                f"{info.frequency_range[0]:g}..{info.frequency_range[1]:g} Hz"
                if info.frequency_range
                else "-"
            )
            lines.append(
                f"| {name} | {info.direction} | {info.kind} | {limit} | "
                f"{drive} | {vrange} | {band} |"
            )
        lines.append("")

    lines.append("## Synthesized architecture")
    lines.append("")
    lines.append(f"**Component summary:** {netlist.summary()}")
    lines.append("")
    lines.append(f"**Estimate:** {result.estimate.describe()}")
    lines.append("")
    lines.append("| instance | component | op amps | covers | inputs | control |")
    lines.append("|---|---|---|---|---|---|")
    estimator = Estimator()
    for inst in netlist.instances:
        lines.append(
            f"| {inst.name} | {inst.spec.name} | {inst.opamps} | "
            f"{sorted(inst.covers)} | {inst.inputs} | "
            f"{inst.control if inst.control is not None else '-'} |"
        )
    lines.append("")

    if result.realized_controls:
        lines.append("### Analog FSM realizations")
        lines.append("")
        for record in result.realized_controls:
            lines.append(
                f"- `{record.signal}` ({record.fsm}) realized as "
                f"{record.kind.replace('_', '-')} (block {record.block_id})"
            )
        lines.append("")
    digital = [s for s in result.fsm_summaries if s.mode != "analog"]
    if digital:
        lines.append("### Digital FSM fallback")
        lines.append("")
        for summary in digital:
            lines.append(f"- {summary.describe()}")
        lines.append("")

    lines.append("## Timing and search effort")
    lines.append("")
    if result.run_id:
        lines.append(f"- run id: `{result.run_id}`")
    lines.append(
        f"- decision nodes visited: {search.nodes_visited} "
        f"({search.nodes_pruned} pruned by the bounding rule)"
    )
    lines.append(
        f"- complete mappings: {search.complete_mappings} "
        f"({search.feasible_mappings} feasible)"
    )
    if search.constraint_violations:
        lines.append(
            "- infeasible mappings killed by: "
            f"{search.violation_summary()}"
        )
    lines.append(f"- sharing branches taken: {search.shared_branches}")
    lines.append(f"- runtime: {search.runtime_s * 1e3:.2f} ms")
    if result.cache_stats:
        lines.append(
            f"- pipeline cache: {result.cache_stats.get('hits', 0)} stage "
            f"hit(s), {result.cache_stats.get('misses', 0)} miss(es)"
        )
    if search.truncated:
        budget = (
            "wall-clock deadline"
            if search.truncated_reason == "deadline"
            else "node budget"
        )
        lines.append(
            f"- **search truncated**: the {budget} was exhausted before "
            "the tree was fully explored; the mapping above is the best "
            "found, not proven optimal"
        )
    lines.append("")

    if result.solver_exploration:
        lines.append("## Solver-space exploration")
        lines.append("")
        lines.append(
            "Every enumerated DAE causalization was mapped; the flow "
            "kept the best-area feasible result."
        )
        lines.append("")
        lines.append("| solver | outcome | area | op amps | note |")
        lines.append("|---|---|---|---|---|")
        for outcome in result.solver_exploration:
            if outcome.feasible:
                note = "**selected**" if outcome.chosen else "-"
                lines.append(
                    f"| #{outcome.solver} | feasible | "
                    f"{outcome.area * 1e12:,.0f} um^2 | "
                    f"{outcome.opamps} | {note} |"
                )
            else:
                lines.append(
                    f"| #{outcome.solver} | infeasible | - | - | "
                    f"{outcome.detail} |"
                )
        lines.append("")

    if result.recovery:
        lines.append("## Recovery")
        lines.append("")
        lines.append(
            "Synthesis initially **failed** and the recovery ladder ran; "
            + (
                "the architecture above is **degraded** relative to the "
                "original specification."
                if result.degraded
                else "no rung recovered."
            )
        )
        lines.append("")
        for event in result.recovery:
            lines.append(f"- {event.describe()}")
        lines.append("")
    for diagnostic in result.diagnostics:
        lines.append(f"> **{diagnostic.severity}**: {diagnostic.message}")
        lines.append("")

    if result.trace is not None and result.trace.roots:
        lines.append("### Per-phase timing")
        lines.append("")
        lines.append("```")
        lines.append(result.trace.format_tree())
        lines.append("```")
        lines.append("")

    if verification is not None:
        lines.append("## Verification")
        lines.append("")
        lines.append("```")
        lines.append(verification.describe())
        lines.append("```")
        lines.append("")

    if include_spice:
        lines.append("## SPICE deck")
        lines.append("")
        lines.append("```spice")
        lines.append(to_spice_deck(netlist))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
