"""The benchmark leaves no process running, orphaned grandchildren included."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

# A child that starts a sleeping grandchild, prints its pid and exits:
# the grandchild is orphaned.  Run in a fresh interpreter, because
# reap_all collects every child of the process that calls it.
SCRIPT = textwrap.dedent("""
    import subprocess, sys
    from perfbench import reaper
    adopted = reaper.adopt_orphans()
    child = subprocess.run(
        [sys.executable, "-c",
         "import subprocess, sys; "
         "p = subprocess.Popen([sys.executable, '-c', "
         "'import time; time.sleep(120)'], "
         "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
         "print(p.pid)"],
        capture_output=True, text=True, check=True)
    orphan = int(child.stdout)
    killed = reaper.reap_all(grace_s=0.2)
    print(adopted, orphan, killed)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreapers are Linux-only")
def test_orphaned_grandchild_is_killed_and_reaped():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    adopted, orphan, killed = done.stdout.split()
    assert adopted == "True"
    assert killed == "1"
    assert not os.path.exists(f"/proc/{orphan}")
