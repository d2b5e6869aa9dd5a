"""The import boundary: synthesis never loads numpy or the SPICE layer.

The flow from VASS to an estimated netlist is symbolic; numpy is
imported only when numeric code first runs (MNA/AC solves, the VHIF
interpreter, verification, Monte Carlo), and nothing in ``src/repro``
imports scipy.  Loading the numerics costs ~0.6 s and ~37 MB per
``vase synth`` process and per spawned executor worker.
Commands that do not synthesize load neither the numerics nor the
mapper/estimator stack.  The boundary is enforced here with module-set
checks in fresh interpreters (deterministic, unlike a timing bound).
See DESIGN.md, "Import layering".
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = str(ROOT / "examples" / "biquad.vhd")
NUMERIC = {"numpy", "scipy"}
FLOW = {"repro.flow", "repro.synth.mapper", "repro.estimation.estimator"}
SPICE = {"repro.spice"} | {
    f"repro.spice.{path.stem}"
    for path in (ROOT / "src" / "repro" / "spice").glob("*.py")
    if path.stem != "__init__"
}


def loaded(snippet: str, watched=NUMERIC) -> set:
    """The ``watched`` modules loaded after ``snippet`` runs in a fresh
    interpreter."""
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(set(sys.modules) & {set(watched)!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), VASE_LEDGER="off")
    proc = subprocess.run(
        [sys.executable, "-c", snippet + report],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_snippet(argv) -> str:
    """Run ``vase ARGV`` in-process, its output discarded."""
    return (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        main({list(argv)!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
    )


class TestNumpyFreeSynthesis:
    @pytest.mark.parametrize("module", ["repro", "repro.cli"])
    def test_import_loads_no_numerics(self, module):
        assert loaded(f"import {module}") == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", EXAMPLE, "--no-ledger"],
            ["check", EXAMPLE],
            ["spice", EXAMPLE],
            ["report", EXAMPLE],
        ],
        ids=["synth", "check", "spice", "report"],
    )
    def test_cli_command_loads_no_numerics(self, argv):
        assert loaded(cli_snippet(argv)) == set()

    def test_verify_loads_numpy(self):
        assert "numpy" in loaded(cli_snippet(["verify", EXAMPLE]))


class TestSpiceFreeSynthesis:
    """The flow reaches no ``repro.spice*`` module: synthesis makes no
    linear solve, so nothing SPICE-level is on its import path."""

    def test_import_flow_loads_no_spice(self):
        assert loaded("import repro.flow", SPICE) == set()

    def test_synthesize_bundled_designs_loads_no_spice(self):
        snippet = (
            "from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS\n"
            "from repro.flow import synthesize\n"
            "apps = dict(ALL_APPLICATIONS)\n"
            "apps['biquad_filter'] = EXTRA_APPLICATIONS['biquad_filter']\n"
            "assert len(apps) == 6\n"
            "for app in apps.values():\n"
            "    synthesize(app.VASS_SOURCE)\n"
        )
        assert loaded(snippet, SPICE) == set()


@pytest.mark.parametrize(
    "argv",
    [["check", EXAMPLE], ["--help"], ["history"], ["stats"]],
    ids=["check", "help", "history", "stats"],
)
def test_non_synthesis_command_skips_flow(argv, tmp_path):
    if argv[0] in ("history", "stats"):
        argv = argv + ["--ledger", str(tmp_path / "ledger.jsonl")]
    assert loaded(cli_snippet(argv), NUMERIC | FLOW) == set()


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.spice",
        "repro.vhif",
        "repro.estimation",
        "repro.robust",
    ],
)
def test_public_names_resolve(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listing, name
