"""Workload inputs stay valid CLI configurations, and the gate catches bad output."""

from __future__ import annotations

import json

import pytest

from perfbench import check
from perfbench.run import BENCH
from perfbench.workloads import (
    MAX_SHIFT,
    VARIANTS,
    WORKLOADS,
    cells,
    n_for,
    setup_argv,
    timed_argv,
    variant_of,
)

ALL = [(name, v) for name in WORKLOADS for v in range(VARIANTS)]


def test_default_seed_reproduces_the_named_argv():
    argv = {name: timed_argv(w, n_for(w, variant_of(0)), "C") for name, w in WORKLOADS.items()}
    assert argv == {
        "selberg_1e7": ["selberg", "--n", "10000000", "--theta", "0.25", "--cache-dir", "C"],
        "verify_1e5": ["verify", "--n", "100000", "--h", "10", "--h", "20", "--cache-dir", "C"],
        "fit_cached_1e6": ["fit", "--n", "1000000", "--h", "8", "--h", "16", "--h", "32",
                           "--h", "64", "--h", "128", "--h", "250", "--cache-dir", "C"],
    }
    assert cells(WORKLOADS["selberg_1e7"], 10_000_000) == [(10_000_000, 56)]


@pytest.mark.parametrize("name,variant", ALL)
def test_every_variant_passes_the_cli_bounds(name, variant):
    from selberg_lab import asymptotics, cli

    w = WORKLOADS[name]
    N = n_for(w, variant)
    assert abs(N - w.n0) <= MAX_SHIFT * w.n0
    for argv in (timed_argv(w, N, "C"), setup_argv(w, N, "C")):
        if argv is None:
            continue
        cfg = cli._config_from_args(cli._build_parser().parse_args(argv))
        assert cfg.cells() == cells(w, N)  # raises ConfigError outside 1 <= H <= N^0.49
    for N_, H in cells(w, N):
        assert 1 <= H <= N_**0.49 and H <= N_ // 4
    if w.command == "fit":
        # the admissible band N^0.1 <= H <= N^0.4 of the default --delta/--eta
        asymptotics.fit_exponent([(N_, H, 1.0) for N_, H in cells(w, N)])
    if w.theta is not None:
        assert cells(w, N) == [(N, 56)]


def test_seeds_map_onto_shipped_variants():
    assert variant_of(0) == 0
    assert {variant_of(s) for s in range(1000)} == set(range(VARIANTS))
    ref = json.loads((BENCH / "reference.json").read_text())
    for name, w in WORKLOADS.items():
        assert sorted(ref[name], key=int) == [str(v) for v in range(VARIANTS)]
        assert all(ref[name][str(v)]["N"] == n_for(w, v) for v in range(VARIANTS))


CSV = ("N,H,J,J_tilde,ratio_J,ratio_J_tilde,lower_ratio,method,mean_mode\n"
       "10000,20,100.5,50.25,0.5,0.25,0.001,sliding,residue\n")
REF = {"science": {"J.H20": 100.5, "J_tilde.H20": 50.25, "ratio_J.H20": 0.5,
                   "ratio_J_tilde.H20": 0.25, "lower_ratio.H20": 0.001}}


def test_gate_accepts_reference_output():
    assert check.gate("selberg", 0, CSV, [(10000, 20)], REF) == ([], REF["science"])


@pytest.mark.parametrize("text,code,why", [
    (CSV, 1, "exit status"),
    (CSV.replace("100.5", "100.6"), 0, "outside rtol"),
    (CSV.replace("J_tilde,", "Jt,"), 0, "header"),
    (CSV + CSV.splitlines()[1] + "\n", 0, "rows"),
    (CSV.replace("sliding", "brute"), 0, "not cell"),
])
def test_gate_rejects(text, code, why):
    problems, _ = check.gate("selberg", code, text, [(10000, 20)], REF)
    assert problems and why in problems[0]


def test_gate_rejects_failed_hard_verify_check():
    rec = {"check": "parseval", "params": {}, "lhs": 1.0, "rhs": 2.0, "ratio": 0.5,
           "violations": None, "slack": None, "hard": True, "ok": False, "note": ""}
    problems, _ = check.gate("verify", 0, json.dumps(rec) + "\n", [], {"science": {}})
    assert problems and "hard check parseval" in problems[0]


def test_speed_scale_uses_the_calibrations_either_side():
    from perfbench.run import REFERENCE_CALIBRATION_S as R, speed_scale

    # neighbours at reference speed, then 1x and 4x slower, then 4x and 16x
    assert speed_scale([R, R, 4 * R, 16 * R]) == pytest.approx([1.0, 0.5, 0.125])


def test_calibration_runs_without_selberg_lab():
    import subprocess
    import sys

    from perfbench.run import CALIBRATE

    code = (f"import runpy, sys; runpy.run_path({str(CALIBRATE)!r}); "
            "sys.exit('selberg_lab' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
