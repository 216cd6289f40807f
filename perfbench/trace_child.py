"""Run one selberg_lab command with every layer wrapped in spans.

    python perfbench/trace_child.py SPANS_JSON RUN_ID MODE ARGS...

ARGS are the arguments of `python -m selberg_lab`. Stdout and the exit
code are the command's own; the spans go to SPANS_JSON, never to stdout.
MODE is `time` or `alloc`. In `alloc` mode `tracemalloc` traces the
command, so each span also carries its peak of traced memory; it is a
separate pass because tracemalloc slows every Python-object allocation
(math.fsum over a 10^7 array runs about 25x slower), which would distort
the self times of the `time` pass.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

# the repository root in place of this script's directory, so no benchmark
# module can shadow a module the traced program imports
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, run_id, mode, *args = argv
    if mode not in ("time", "alloc"):
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = Tracer(run_id)
    with tracer.span("process.import"):
        import selberg_lab.cli
    tracer.install()
    if mode == "alloc":
        tracemalloc.start()
    try:
        return selberg_lab.cli.main(args)
    finally:
        if mode == "alloc":
            tracemalloc.stop()
        tracer.restore()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
