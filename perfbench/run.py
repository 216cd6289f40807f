"""selberg-lab benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop: one client
runs one `python -m selberg_lab ...` child at a time, with the checkout's
`src/` on PYTHONPATH, BLAS/OpenMP threads pinned to 1, SELBERG_LAB_CACHE
removed and a fresh `--cache-dir` for every run. The timed command runs
back to back until its runs add up to S seconds and number at least
MIN_SAMPLES; every run passes the correctness gate in check.py. Set-up (a
fresh interpreter importing selberg_lab, plus the cache fill of a
warm-cache workload) is repeated before each of the first SETUP_REPS
timed runs and its median reported as `setup_s`.

The shared host this runs on changes speed by up to half for tens of
seconds at a time, which moves a run's median wall time more than any
bound worth having. So `calibrate.py`, a fixed piece of work that imports
nothing from selberg_lab, runs before every timed run and after the last
one, and every timed run and set-up repetition is scaled by
REFERENCE_CALIBRATION_S over the geometric mean of the calibrations on
either side of it: `wall_s` and `setup_s` are seconds at the speed of the
reference host. The unscaled medians are printed and recorded too. (The
scaling does not fit selberg_1e7; see workloads.py.)

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported.
With `--trace 1` the same untraced loop runs (its unscaled median is the
base of `trace.overhead_s`; spans are unscaled too), followed by one
traced child that records spans and work counts (`time` pass) and one
that adds tracemalloc peaks (`alloc` pass); the per-layer metrics of
BENCHMARK.json are reported.

Human-readable lines, including `error_rate` and the machine record, go
to stdout; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A full record (samples, science
values, stdout digests, provenance, spans) is written to
`.bench_out/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    cells,
    n_for,
    setup_argv,
    timed_argv,
    variant_of,
)

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
# Set to 1 in every child's environment: BLAS/OpenMP run one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SAMPLES = 5
SETUP_REPS = 5
CHILD_LIMIT_S = 150.0  # a child still running after this is killed and counted failed
CALIBRATE = BENCH / "calibrate.py"
# Median wall time of calibrate.py between timed commands on the reference
# host (2-core Xeon VM, 8 GB); timed results are reported in seconds at
# that speed.
REFERENCE_CALIBRATION_S = 0.45

IMPORT_PROBE = ("import json, numpy, selberg_lab; "
                "print(json.dumps({'file': selberg_lab.__file__, 'numpy': numpy.__version__}))")


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SELBERG_LAB_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env.update({v: "1" for v in THREAD_VARS})
    return env


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes = field(repr=False)
    stderr: bytes = field(repr=False)


def spawn(argv: list[str], work: Path, env: dict[str, str]) -> ChildRun:
    """Run one child to completion; its own ru_maxrss comes from wait4."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (e.g. SIGTERM): never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_bytes(), err_path.read_bytes())


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quartiles(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return {"median": statistics.median(xs), "tail": tail, "n": n, "samples": xs}


def speed_scale(calibrations: list[float]) -> list[float]:
    """Scale factor of each timed run from the calibrations either side of it."""
    return [REFERENCE_CALIBRATION_S / (before * after) ** 0.5
            for before, after in zip(calibrations, calibrations[1:])]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "selberg_lab").glob("*.py")))


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def machine_record(probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "git_revision": git_revision(),
        "src_lines": src_line_count(),
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "selberg_lab_file": probe["file"],
    }


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.variant = variant_of(seed)
        self.N = n_for(self.w, self.variant)
        self.cells = cells(self.w, self.N)
        reference = json.loads((BENCH / "reference.json").read_text())
        self.reference = reference[name][str(self.variant)]
        if self.reference["N"] != self.N:
            raise BenchError(f"reference.json was made for N={self.reference['N']}, not {self.N}")
        self.env = child_env()
        self.work = fresh_dir(OUT / "work" / f"{name}-{seed}-{os.getpid()}")
        self.runs: list[dict] = []

    def module(self) -> list[str]:
        return [sys.executable, "-m", "selberg_lab"]

    def trace_prefix(self, part: str, mode: str) -> tuple[list[str], Path]:
        """Argv prefix running a command under trace_child, and its spans file."""
        spans = self.work / f"spans-{part}-{mode}.json"
        return [sys.executable, str(BENCH / "trace_child.py"), str(spans),
                f"{self.w.name}/{self.seed}/{part}/{mode}", mode], spans

    def fill_cache(self, cache: Path, prefix: list[str]) -> ChildRun:
        """Run the set-up cache fill into a fresh `cache`; every cell must be written."""
        run = spawn([*prefix, *setup_argv(self.w, self.N, str(fresh_dir(cache)))],
                    self.work, self.env)
        lines = run.stdout.decode().splitlines()
        if run.returncode != 0 or len(lines) != len(self.cells) or \
                not all(line.endswith("[written]") for line in lines):
            raise BenchError(f"cache fill failed: {run.stdout.decode()[-500:]}"
                             f"{run.stderr.decode()[-500:]}")
        return run

    def set_up(self, warm: Path) -> tuple[dict, float, float | None]:
        """One set-up repetition: (import probe, import wall, cache-fill wall or None)."""
        probe_run = spawn([sys.executable, "-c", IMPORT_PROBE], self.work, self.env)
        if probe_run.returncode != 0:
            raise BenchError(f"importing selberg_lab failed: {probe_run.stderr.decode()[-500:]}")
        probe = json.loads(probe_run.stdout)
        if not Path(probe["file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"selberg_lab resolves to {probe['file']}, outside {SRC}")
        fill = self.fill_cache(warm, self.module()).wall_s if self.w.warm_cache else None
        return probe, probe_run.wall_s, fill

    def timed_cache(self, i: int, warm: Path) -> Path:
        return warm if self.w.warm_cache else fresh_dir(self.work / f"cache-{i}")

    def record(self, kind: str, run: ChildRun) -> dict:
        problems, values = check.gate(self.w.command, run.returncode, run.stdout.decode(),
                                      self.cells, self.reference)
        digest = hashlib.sha256(run.stdout).hexdigest()
        rec = {
            "kind": kind,
            "wall_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_mb,
            "returncode": run.returncode,
            "ok": not problems,
            "problems": problems,
            "stderr_tail": run.stderr.decode(errors="replace")[-500:],
            "stdout_sha256": digest,
            "stdout_matches_reference": digest == self.reference["stdout_sha256"],
            "stdout_bytes": len(run.stdout),
            "science": values,
        }
        self.runs.append(rec)
        return rec

    def calibrate(self) -> float:
        run = spawn([sys.executable, str(CALIBRATE)], self.work, self.env)
        if run.returncode != 0:
            raise BenchError(f"calibration failed: {run.stderr.decode()[-500:]}")
        return run.wall_s

    def timed_loop(self, warm: Path) -> tuple[dict, list[float], list[float], list[dict],
                                              list[float]]:
        """(import probe, import walls, cache-fill walls, timed run records,
        calibration walls).

        The timed command runs back to back until its runs add up to
        `seconds` and number at least MIN_SAMPLES. A set-up repetition
        precedes each of the first SETUP_REPS timed runs, so set-up is
        sampled across the run rather than in one burst that a short slow
        spell of the machine can cover whole; set-up time does not count
        against `seconds`. A calibration runs right before each timed run
        and after the last, so there is one more calibration than timed runs.
        """
        imports, fills, out, calibrations = [], [], [], []
        while len(out) < MIN_SAMPLES or sum(r["wall_s"] for r in out) < self.seconds:
            if len(out) < SETUP_REPS:
                probe, imported, fill = self.set_up(warm)
                imports.append(imported)
                if fill is not None:
                    fills.append(fill)
            calibrations.append(self.calibrate())
            argv = timed_argv(self.w, self.N, str(self.timed_cache(len(out), warm)))
            out.append(self.record("untraced", spawn([*self.module(), *argv], self.work, self.env)))
        calibrations.append(self.calibrate())
        return probe, imports, fills, out, calibrations

    def traced(self, mode: str, cache: Path) -> tuple[dict, list[dict], str]:
        """The timed command under trace_child: (run record, spans, stdout)."""
        prefix, spans_path = self.trace_prefix("timed", mode)
        run = spawn([*prefix, *timed_argv(self.w, self.N, str(cache))], self.work, self.env)
        rec = self.record(f"traced-{mode}", run)
        return rec, read_spans(spans_path), run.stdout.decode()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def hard_ok_ratio(command: str, text: str) -> float:
    """Share of `verify`'s hard checks that passed; 0 when there are none."""
    if command != "verify":
        return 0.0
    try:
        hard = [r for r in map(json.loads, text.splitlines()) if r.get("hard") is True]
    except (ValueError, AttributeError):  # malformed output; the gate already failed it
        return 0.0
    return sum(r["ok"] is True for r in hard) / len(hard) if hard else 0.0


def read_spans(path: Path) -> list[dict]:
    if not path.is_file():
        raise BenchError(f"a traced child wrote no spans to {path.name}")
    data = json.loads(path.read_text())
    if data["missing"]:
        print(f"not traced (absent from the program): {', '.join(data['missing'])}")
    return data["spans"]


def layer_metrics(bench: Bench, warm: Path, untraced: float, fill: float, report: dict) -> dict:
    """Trace the timed command (after a traced cache fill, for a warm-cache
    workload) for spans and counts, then once more for tracemalloc peaks.

    `untraced` and `fill` are the untraced medians of the timed command and
    of the cache fill, the base of `trace.overhead_s`.
    """
    spans, traced_wall = [], 0.0
    if bench.w.warm_cache:
        prefix, fill_spans = bench.trace_prefix("fill", "time")
        cache = bench.work / "cache-traced"
        traced_wall += bench.fill_cache(cache, prefix).wall_s
        spans = read_spans(fill_spans)
    else:
        cache = bench.timed_cache(len(bench.runs), warm)
    t_rec, t_spans, t_out = bench.traced("time", cache)
    spans = tracer.merge_spans(spans, t_spans)
    traced_wall += t_rec["wall_s"]
    a_rec, a_spans, _ = bench.traced("alloc", bench.timed_cache(len(bench.runs), warm))

    metrics = tracer.per_layer_metrics(spans)
    alloc = tracer.per_layer_metrics(a_spans)
    for key in ("selberg.peak_alloc_mb", "spectral.three_range_split.peak_alloc_mb"):
        metrics[key] = alloc[key]
    metrics["cli.output_bytes"] = t_rec["stdout_bytes"]
    metrics["verification.hard_ok_ratio"] = hard_ok_ratio(bench.w.command, t_out)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - (untraced + fill)
    metrics["trace.unattributed_s"] = traced_wall - sum(tracer.self_times(spans).values())
    metrics["trace.alloc_pass_s"] = a_rec["wall_s"]
    report["layers"] = tracer.layer_totals(spans)
    report["alloc_peaks"] = {k: v["peak_alloc"] for k, v in tracer.layer_totals(a_spans).items()}
    report["spans"] = spans
    return metrics


def measure(args) -> tuple[dict, dict, Bench]:
    """(metrics by name, full report, the bench with its run records)."""
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        warm = bench.work / "cache-setup"
        probe, imports, fills, untraced, calibrations = bench.timed_loop(warm)
        setup_times = [i + f for i, f in zip(imports, fills)] if fills else imports
        scale = speed_scale(calibrations)
        raw_wall = quartiles([r["wall_s"] for r in untraced])
        wall = quartiles([r["wall_s"] * k for r, k in zip(untraced, scale)])
        report = {
            "workload": bench.w.name,
            "seed": bench.seed,
            "variant": bench.variant,
            "N": bench.N,
            "argv": ["python", "-m", "selberg_lab",
                     *timed_argv(bench.w, bench.N, "<fresh cache dir>")],
            "machine": machine_record(probe),
            "reference_calibration_s": REFERENCE_CALIBRATION_S,
            "calibration_s": quartiles(calibrations),
            "speed_scale": scale,
            "setup_s": quartiles([t * k for t, k in zip(setup_times, scale)]),
            "raw_setup_s": quartiles(setup_times),
            "import_s": quartiles(imports),
            "fill_s": quartiles(fills) if fills else None,
            "wall_s": wall,
            "raw_wall_s": raw_wall,
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in untraced]),
        }
        if bench.trace:
            fill = report["fill_s"]["median"] if fills else 0.0
            metrics = layer_metrics(bench, warm, raw_wall["median"], fill, report)
        else:
            metrics = {
                "wall_s": wall["median"],
                "xs_per_s": sum(N for N, _ in bench.cells) / wall["median"],
                "peak_rss_mb": report["peak_rss_mb"]["median"],
                "setup_s": report["setup_s"]["median"],
            }
        report["runs"] = bench.runs
        return metrics, report, bench
    finally:
        bench.close()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # unwinds through spawn, which kills its child
    if not (SRC / "selberg_lab" / "__init__.py").is_file():
        print(f"error: no selberg_lab sources under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, report, bench = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    attempted = len(bench.runs)
    failed = sum(not r["ok"] for r in bench.runs)
    report["error_rate"] = failed / attempted
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    m = report["machine"]
    print(f"workload {args.workload} seed {args.seed} (variant {bench.variant}, N={bench.N}): "
          + " ".join(report["argv"]))
    print(f"machine: {m['nproc']} cpus ({m['cpus_usable']} usable), {m['cpu_model']}, "
          f"{m['mem_total']}, python {m['python']}, numpy {m['numpy']}, "
          f"rev {m['git_revision']}, src {m['src_lines']} lines, {m['selberg_lab_file']}")
    for rec in bench.runs:
        if rec["problems"]:
            print(f"FAILED {rec['kind']} run: {'; '.join(rec['problems'])}")
    tail = report["wall_s"]["tail"]
    print(f"wall_s samples {report['wall_s']['n']}, tail "
          + (f"p{tail['percentile']:.1f} {tail['value']:.4f} s" if tail else
             "none (fewer than 11 samples)"))
    print(f"unscaled medians: wall {report['raw_wall_s']['median']:.4f} s, set-up "
          f"{report['raw_setup_s']['median']:.4f} s; calibration median "
          f"{report['calibration_s']['median']:.4f} s (reference {REFERENCE_CALIBRATION_S} s)")
    print(f"error_rate {report['error_rate']:.4f} ({failed} of {attempted} runs failed)")
    results = {}
    for spec_m in wanted:
        v = float(metrics[spec_m["name"]])
        results[spec_m["name"]] = {"value": v, "unit": spec_m["unit"]}
        print(f"{spec_m['name']:<48} {v:>16.6g} {spec_m['unit']}")
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
