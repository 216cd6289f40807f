"""Write reference.json: science values and stdout digests for every input variant.

    python3 perfbench/make_reference.py

Runs each workload's timed command once per shipped variant (after its
cache fill, for a warm-cache workload), checks the schema and the hard
checks, and writes every workload's results from scratch. Run it only at
a commit whose outputs are the accepted reference; the gate in check.py
compares every benchmark run against these values.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import check  # noqa: E402
from perfbench.run import BENCH, OUT, child_env, fresh_dir, spawn  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    VARIANTS,
    WORKLOADS,
    cells,
    n_for,
    setup_argv,
    timed_argv,
)


def reference_for(w, variant: int, work: Path, env: dict) -> dict:
    N = n_for(w, variant)
    cache = fresh_dir(work / "cache")
    fill = setup_argv(w, N, str(cache))
    if fill is not None:
        run = spawn([sys.executable, "-m", "selberg_lab", *fill], work, env)
        if run.returncode != 0:
            raise SystemExit(f"{w.name} variant {variant}: cache fill failed")
    run = spawn([sys.executable, "-m", "selberg_lab", *timed_argv(w, N, str(cache))], work, env)
    if run.returncode != 0:
        raise SystemExit(f"{w.name} variant {variant}: exit {run.returncode}\n"
                         f"{run.stderr.decode()}")
    return {
        "N": N,
        "science": check.science(w.command, run.stdout.decode(), cells(w, N)),
        "stdout_sha256": hashlib.sha256(run.stdout).hexdigest(),
    }


def main() -> int:
    ref = {}
    work = fresh_dir(OUT / "work" / f"reference-{os.getpid()}")
    env = child_env()
    try:
        for name in sorted(WORKLOADS):
            ref[name] = {str(v): reference_for(WORKLOADS[name], v, work, env)
                         for v in range(VARIANTS)}
            print(f"{name}: {VARIANTS} variants", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
