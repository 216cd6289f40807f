"""Pinned CLI outputs in tests/golden/. The CSV grids were written before
the brute oracle was vectorised; the selberg JSON and fit outputs before
the JSON rows were built from the report dataclass. verify was written
last when the route correlation of real f moved from the complex FFT to
one real-FFT pair, which moved only the rhs, ratio and slack digits of
its two correlation_route records, by at most 4e-11 relative.

verify, fit and the sliding selberg grid (CSV and JSON) must stay
byte-identical unless a change names the bytes it moves as a behaviour
change and writes the golden again. The brute grid keeps J and every
text field byte-identical; its J~ rows come from a matrix-vector product
whose rounding differs from one dot product per row, so J~ and its ratio
are held to a relative 1e-13.
"""

import csv
import io
from pathlib import Path

import pytest

from test_cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
GRID = ("selberg", "--n", "1000", "--n", "20000", "--h", "7", "--h", "29")
MEAN_MODES = ("residue", "window-poly")


def _golden(name):
    return (GOLDEN / name).read_text()


def test_verify_golden_n10000():
    res = run_cli("verify", "--n", "10000")
    assert res.returncode == 0
    assert res.stdout == _golden("verify_n10000.jsonl")


@pytest.mark.parametrize("mean_mode", MEAN_MODES)
def test_selberg_sliding_golden(mean_mode):
    res = run_cli(*GRID, "--mean", mean_mode)
    assert res.returncode == 0
    assert res.stdout == _golden(f"selberg_sliding_{mean_mode}.csv")


def test_selberg_json_golden():
    res = run_cli(*GRID, "--format", "json")
    assert res.returncode == 0
    assert res.stdout == _golden("selberg_sliding_residue.jsonl")


def test_fit_golden():
    res = run_cli("fit", "--n", "65536", "--h", "16", "--h", "32")
    assert res.returncode == 0
    assert res.stdout == _golden("fit_n65536.json")


@pytest.mark.parametrize("mean_mode", MEAN_MODES)
def test_selberg_brute_golden(mean_mode):
    res = run_cli(*GRID, "--mean", mean_mode, "--method", "brute")
    assert res.returncode == 0
    got = list(csv.DictReader(io.StringIO(res.stdout)))
    want = list(csv.DictReader(io.StringIO(_golden(f"selberg_brute_{mean_mode}.csv"))))
    assert res.stdout.splitlines()[0] == _golden(f"selberg_brute_{mean_mode}.csv").splitlines()[0]
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        for key in ("N", "H", "J", "ratio_J", "lower_ratio", "method", "mean_mode"):
            assert g[key] == w[key], key
        for key in ("J_tilde", "ratio_J_tilde"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-13, abs=0), key
