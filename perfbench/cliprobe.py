"""A traced ``vase`` process: ``python -m perfbench.cliprobe OUT ARGS...``.

Imports ``repro.cli``, installs the layer wrappers, runs
``repro.cli.main(ARGS)`` and writes its spans and registry counter
deltas as JSON to OUT.  The exit code is the CLI's.
"""

import json
import sys


def main(argv) -> int:
    out, *cli_argv = argv
    import repro.cli

    from perfbench import layers
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    before = layers.counter_snapshot()
    with recorder:
        code = repro.cli.main(cli_argv)
    counters = layers.counter_delta(before, layers.counter_snapshot())
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans, "counters": counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
