import json
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from conftest import cli_env
from selberg_lab import arith_core, cli, spectral
from selberg_lab.selberg import CSV_HEADER
from selberg_lab.spectral import CorrelationTable


def run_cli(*args, cwd=None):
    """Run the CLI in a child with cli_env(), in a fresh empty directory
    unless `cwd` is given, so no ambient table cache is read."""
    with tempfile.TemporaryDirectory() as scratch:
        return subprocess.run(
            [sys.executable, "-m", "selberg_lab", *args],
            capture_output=True,
            text=True,
            cwd=cwd or scratch,
            env=cli_env(),
        )


# ------------------------------------------------------------------ sieve


def test_sieve_writes_cache_and_hits(tmp_path):
    cache = tmp_path / "cache"
    first = run_cli("sieve", "--n", "10000", "--h", "20", "--cache-dir", str(cache))
    assert first.returncode == 0
    assert "[written]" in first.stdout
    path = cache / "d3_N10000_H20.bin"
    assert path.is_file()
    blob = path.read_bytes()
    table = arith_core.load_table(path)
    assert len(table.values) == 10000 + 2 * 20
    assert table.lo == 10000 - 20 + 1

    second = run_cli("sieve", "--n", "10000", "--h", "20", "--cache-dir", str(cache))
    assert second.returncode == 0
    assert "[cache hit]" in second.stdout
    assert path.read_bytes() == blob

    third = run_cli("sieve", "--n", "10000", "--h", "20", "--cache-dir", str(cache))
    assert third.stdout == second.stdout


def test_sieve_large_window_spot_value(tmp_path):
    cache = tmp_path / "cache"
    res = run_cli("sieve", "--n", "1000000", "--h", "20", "--cache-dir", str(cache))
    assert res.returncode == 0
    table = arith_core.load_table(cache / "d3_N1000000_H20.bin")
    # 10^6 = 2^6 * 5^6 so d_3 = C(8,2)^2
    assert table.value(10**6) == 784


def test_sieve_env_cache_dir(tmp_path):
    # No --cache-dir: the variable alone must pick the directory. Were it
    # ignored, the default .selberg-cache/ would land in tmp_path instead.
    env_cache = tmp_path / "envcache"
    proc = subprocess.run(
        [sys.executable, "-m", "selberg_lab", "sieve", "--n", "500", "--h", "5"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env(SELBERG_LAB_CACHE=str(env_cache)),
    )
    assert proc.returncode == 0
    assert (env_cache / "d3_N500_H5.bin").is_file()


def test_unreadable_cache_file_is_resieved(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    junk = cache / "d3_N2048_H11.bin"
    junk.write_bytes(b"junk")
    args = ("--n", "2048", "--h", "11", "--cache-dir", str(cache))
    fresh = run_cli("selberg", "--n", "2048", "--h", "11")
    for extra in (("selberg",), ("fit", "--h", "6", "--delta", "0.15")):
        res = run_cli(extra[0], *args, *extra[1:])
        assert res.returncode == 0, res.stderr
        assert junk.read_bytes() == b"junk"  # only sieve writes the cache
    assert run_cli("selberg", *args).stdout == fresh.stdout
    res = run_cli("sieve", *args)
    assert res.returncode == 0, res.stderr
    assert "[rewritten]" in res.stdout
    table = arith_core.load_table(junk)
    assert (table.lo, len(table.values)) == (2048 - 11 + 1, 2048 + 2 * 11)
    assert "[cache hit]" in run_cli("sieve", *args).stdout


# ---------------------------------------------------- one sieve per N

GRID_WITH_REPEAT = ["--n", "4096", "--n", "5000", "--n", "4096", "--h", "8", "--h", "16", "--h", "12"]


def _record_sieves(monkeypatch) -> list[tuple[int, int]]:
    """The (lo, hi) of every sieve_dk call made from now on."""
    calls = []
    real = arith_core.sieve_dk

    def recording(lo, hi, k):
        calls.append((lo, hi))
        return real(lo, hi, k)

    monkeypatch.setattr(arith_core, "sieve_dk", recording)
    return calls


@pytest.mark.parametrize("command", ["sieve", "selberg", "fit"])
def test_each_n_is_sieved_once_at_its_largest_h(command, tmp_path, monkeypatch, capsys):
    calls = _record_sieves(monkeypatch)
    argv = [command, *GRID_WITH_REPEAT, "--cache-dir", str(tmp_path)]
    assert cli.main(argv + (["--delta", "0.15"] if command == "fit" else [])) == 0
    capsys.readouterr()
    first, second = (4096 - 15, 2 * 4096 + 16), (5000 - 15, 2 * 5000 + 16)
    if command == "sieve":
        # the repeated N finds every one of its files written by the first
        assert calls == [first, second]
    else:
        # the cache is empty and stays so; the repeated N is sieved again
        assert calls == [first, second, first]


def test_files_cut_from_the_shared_table_equal_per_cell_sieves(tmp_path, capsys):
    assert cli.main(["sieve", *GRID_WITH_REPEAT, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for N in (4096, 5000):
        for H in (8, 16, 12):
            alone = tmp_path / f"alone_N{N}_H{H}.bin"
            arith_core.save_table(arith_core.sieve_dk(N - H + 1, 2 * N + H, 3), alone)
            assert (tmp_path / f"d3_N{N}_H{H}.bin").read_bytes() == alone.read_bytes()


def test_mixed_cache_grid_prints_hit_written_and_rewritten(tmp_path):
    # H = 8 is cached, H = 16 missing, H = 12 junk: one line per cell, in grid
    # order, each with its own status, and each file as its cell sieved alone
    assert run_cli("sieve", "--n", "4096", "--h", "8", "--cache-dir", "c",
                   cwd=tmp_path).returncode == 0
    (tmp_path / "c" / "d3_N4096_H12.bin").write_bytes(b"junk")
    res = run_cli("sieve", "--n", "4096", "--h", "8", "--h", "16", "--h", "12",
                  "--cache-dir", "c", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        "sieve k=3 N=4096 H=8 entries=4112 path=c/d3_N4096_H8.bin [cache hit]\n"
        "sieve k=3 N=4096 H=16 entries=4128 path=c/d3_N4096_H16.bin [written]\n"
        "sieve k=3 N=4096 H=12 entries=4120 path=c/d3_N4096_H12.bin [rewritten]\n"
    )
    for H in (8, 16, 12):
        assert arith_core.load_table(tmp_path / "c" / f"d3_N4096_H{H}.bin").values.tolist() == \
            arith_core.sieve_dk(4096 - H + 1, 2 * 4096 + H, 3).values.tolist()


def test_sieve_fill_prints_one_written_line_per_cell(tmp_path, capsys):
    # the shape perfbench's fit_cached_1e6 set-up requires of its cache fill:
    # its H grid at a smaller N, into an empty directory
    N, hs = 100_000, (8, 16, 32, 64, 128, 250)
    argv = ["sieve", "--n", str(N), *(a for H in hs for a in ("--h", str(H)))]
    assert cli.main(argv + ["--cache-dir", str(tmp_path / "fresh")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(hs)
    for line, H in zip(lines, hs):
        assert line.endswith("[written]")
        assert f" H={H} entries={N + 2 * H} " in line


def test_fit_cells_hold_no_arrays_of_an_earlier_cell(tmp_path, capsys):
    # each cell's table and f are freed before the next cell's are read, so
    # the peak is one cell's: f plus three window arrays of the largest H
    N = 2**17
    argv = ["--n", str(N), "--h", "8", "--h", "16", "--h", "64", "--cache-dir", str(tmp_path)]
    assert cli.main(["sieve", *argv]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["fit", *argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 4.5 * 8 * (N + 2 * 64)


# ---------------------------------------------------------------- selberg


def test_selberg_csv_schema():
    res = run_cli("selberg", "--n", "1000", "--h", "10")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1000" and fields[1] == "10"
    assert float(fields[2]) >= 0 and float(fields[3]) >= 0
    assert fields[7] == "sliding" and fields[8] == "residue"


def test_selberg_theta_rows_increasing():
    res = run_cli("selberg", "--theta", "0.25", "--n", "4096", "--n", "16384", "--n", "65536")
    assert res.returncode == 0
    lines = res.stdout.splitlines()[1:]
    ns = [int(line.split(",")[0]) for line in lines]
    hs = [int(line.split(",")[1]) for line in lines]
    assert ns == [4096, 16384, 65536]
    assert hs == [int(n**0.25) for n in ns]


def _cells(*argv):
    return cli._config_from_args(cli._build_parser().parse_args(["selberg", *argv])).cells()


@pytest.mark.parametrize("N, theta, H", [
    (1024, "0.3", 8),        # 1024^0.3 = 8 exactly; float pow gives 7.99...
    (59049, "0.3", 27),      # 3^10 -> 3^3
    (1048576, "0.15", 8),    # 2^20 -> 2^3
    (10**6, "1/3", 100),
])
def test_theta_floors_exactly(N, theta, H):
    assert _cells("--n", str(N), "--theta", theta) == [(N, H)]


def test_theta_cli_row_uses_exact_floor():
    res = run_cli("selberg", "--n", "1024", "--theta", "0.3")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].startswith("1024,8,")


def test_h_bound_at_the_049_edge():
    # H = N^0.49 exactly: 2^49 at N = 2^100, where float pow puts N^0.49 just below H
    N = 2**100
    assert 2**49 > N**0.49
    assert _cells("--n", str(N), "--h", str(2**49)) == [(N, 2**49)]
    with pytest.raises(cli.ConfigError):
        _cells("--n", str(N), "--h", str(2**49 + 1))
    assert _cells("--n", str(N), "--theta", "0.49") == [(N, 2**49)]


def test_theta_with_long_denominator_is_config_error():
    assert run_cli("selberg", "--n", "1000", "--theta", "0.1234567").returncode == 2


def test_selberg_brute_agrees_with_sliding():
    a = run_cli("selberg", "--n", "1000", "--h", "10", "--method", "sliding")
    b = run_cli("selberg", "--n", "1000", "--h", "10", "--method", "brute")
    fa = a.stdout.splitlines()[1].split(",")
    fb = b.stdout.splitlines()[1].split(",")
    for i in (2, 3):
        assert float(fa[i]) == pytest.approx(float(fb[i]), rel=1e-9)


def test_selberg_json_format():
    res = run_cli("selberg", "--n", "1000", "--h", "10", "--format", "json")
    row = json.loads(res.stdout.splitlines()[0])
    assert set(row) == set(CSV_HEADER.split(","))


def test_selberg_window_poly_mode():
    res = run_cli("selberg", "--n", "1000", "--h", "10", "--mean", "window-poly")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].endswith("window-poly")


# ----------------------------------------------------------------- verify


def test_verify_exit_zero_and_schema():
    res = run_cli("verify", "--n", "2000", "--h", "10", "--grid", "65536")
    assert res.returncode == 0
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert records
    for rec in records:
        assert {"check", "params", "lhs", "rhs", "ratio", "violations", "slack"} <= rec.keys()
    names = {r["check"] for r in records}
    assert "kernel_localization" in names
    assert "correlation_route" in names
    assert all(r["ok"] for r in records if r["hard"])


def test_verify_detects_tampered_kernel(monkeypatch):
    # an off-by-one box correlation must trip the hard formula check
    def tampered(H):
        vals = np.maximum(H - 1 - np.abs(np.arange(-(H - 1), H)), 0).astype(float)
        return CorrelationTable(hmax=H - 1, values=vals)

    monkeypatch.setattr(spectral, "box_autocorrelation", tampered)
    from selberg_lab.verification import VerifyConfig, run_verification

    records, failures = run_verification(VerifyConfig(cells=((2000, 10),)))
    assert failures > 0


def test_verify_in_process_exit_codes(capsys):
    assert cli.main(["verify", "--n", "2000", "--h", "10", "--grid", "32768"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("hmax", [-1, 512])
def test_hmax_outside_its_range_is_config_error_before_any_check(hmax, capsys, monkeypatch):
    # the FFT-vs-direct check correlates 512 points: --hmax must lie in [0, 511]
    monkeypatch.setattr(cli, "run_verification", lambda cfg: pytest.fail("checks ran"))
    assert cli.main(["verify", "--n", "10000", "--hmax", str(hmax)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--hmax" in err and "[0, 511]" in err


def test_hmax_at_its_upper_bound_runs(capsys):
    assert cli.main(["verify", "--n", "10000", "--hmax", "511"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (rec,) = [r for r in records if r["check"] == "correlation_fft_vs_direct"]
    assert rec["params"] == {"length": 512, "hmax": 511} and rec["ok"]


# -------------------------------------------------------------------- fit


def test_fit_injection_recovers_slope():
    res = run_cli(
        "fit", "--n", "1000000", "--h", "100", "--h", "400",
        "--inject", "1e8", "--inject", "4e8", "--delta", "0.05",
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["A_hat"] == pytest.approx(0.0, abs=1e-12)
    assert rep["empirical_only"] is True


def test_fit_real_two_sample_run():
    res = run_cli("fit", "--n", "4096", "--h", "8", "--h", "16", "--delta", "0.15")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["H_range"] == [8, 16]
    assert len(rep["samples"]) == 2
    assert all(s[2] > 0 for s in rep["samples"])


def test_fit_inject_count_mismatch_is_config_error():
    res = run_cli("fit", "--n", "1000000", "--h", "100", "--h", "200", "--inject", "1e8")
    assert res.returncode == 2


def test_fit_eta_floor_is_config_error():
    res = run_cli(
        "fit", "--n", "1000000", "--h", "5", "--h", "50",
        "--inject", "1e6", "--inject", "1e7", "--delta", "0.1", "--eta", "0.2",
    )
    assert res.returncode == 2


# ------------------------------------------------------------ exit codes


def test_config_errors_exit_two():
    for command in ("selberg", "sieve", "fit"):
        no_n = run_cli(command, "--h", "10")
        assert no_n.returncode == 2 and "at least one --n is required" in no_n.stderr
        no_h = run_cli(command, "--n", "1000")
        assert no_h.returncode == 2 and "provide --h or --theta" in no_h.stderr
    for command in ("sieve", "verify"):  # d_1000 leaves int64 on the first prime power
        res = run_cli(command, "--n", "10000", "--h", "10", "--k", "1000")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert run_cli("selberg", "--n", "1000", "--h", "10", "--theta", "0.2").returncode == 2
    assert run_cli("selberg", "--n", "1000", "--theta", "0.6").returncode == 2
    assert run_cli("selberg", "--n", "1000", "--h", "40").returncode == 2  # H > N^0.49
    assert run_cli("selberg", "--n", "100", "--h", "0").returncode == 2
    assert run_cli("selberg", "--n", "-5", "--h", "2").returncode == 2
    assert run_cli("selberg", "--n", "1000", "--h", "10",
                   "--out", "/nonexistent-dir/x.csv").returncode == 2
    assert run_cli("nonsense").returncode == 2  # argparse itself


@pytest.mark.parametrize("command", ["selberg", "fit", "verify"])
def test_late_cell_above_quarter_rejected_before_any_window(command, tmp_path, monkeypatch,
                                                            capsys):
    # H = 3 <= 11^0.49 passes the grid bound but not H <= N/4; the whole grid is
    # checked before the N = 10^6 cell ahead of it is sieved or integrated
    def no_sieve(*args, **kwargs):
        raise AssertionError("a window was sieved before the grid was checked")

    monkeypatch.setattr(arith_core, "sieve_dk", no_sieve)
    argv = [command, "--n", "1000000", "--n", "11", "--h", "3", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "H=3 too large for N=11" in err


@pytest.mark.parametrize("command", ["selberg", "fit", "verify"])
def test_unsupported_k_rejected_before_any_window(command, tmp_path, monkeypatch, capsys):
    # k = 5 needs gamma_3, which is not stored; the residue polynomial is
    # built before the first window is sieved
    def no_sieve(*args, **kwargs):
        raise AssertionError("a window was sieved before k was checked")

    monkeypatch.setattr(arith_core, "sieve_dk", no_sieve)
    argv = [command, "--n", "1000000", "--h", "10", "--k", "5", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "gamma_0..gamma_3" in err


def test_sieve_and_injected_fit_skip_the_quarter_bound(tmp_path, capsys):
    # neither computes an integral, so H <= N^0.49 is their only grid bound;
    # the injected fit then stops at its own band check
    assert cli.main(["sieve", "--n", "11", "--h", "3", "--cache-dir", str(tmp_path)]) == 0
    assert cli.main(["fit", "--n", "11", "--n", "12", "--h", "3",
                     "--inject", "1.0", "--inject", "2.0"]) == 2
    err = capsys.readouterr().err
    assert "outside the band" in err and "too large" not in err


# ----------------------------------------------------------- determinism


def test_outputs_byte_identical_across_runs_and_threads(tmp_path):
    # every child must succeed: failed runs print nothing, and empty
    # outputs would compare equal
    runs = [run_cli("selberg", "--n", "2048", "--h", "11", "--threads", str(t))
            for t in (1, 8, 1)]
    v = [run_cli("verify", "--n", "2000", "--h", "10", "--grid", "32768",
                 "--threads", str(t)) for t in (1, 8)]
    f = [run_cli("fit", "--n", "4096", "--h", "8", "--h", "16", "--delta", "0.15",
                 "--threads", str(t)) for t in (1, 8)]
    assert [r.returncode for r in runs + v + f] == [0] * 7
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert v[0].stdout == v[1].stdout
    assert f[0].stdout == f[1].stdout


def test_out_flag_writes_identical_content(tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli("selberg", "--n", "2048", "--h", "11", "--out", str(out))
    assert res.returncode == 0
    direct = run_cli("selberg", "--n", "2048", "--h", "11").stdout
    assert out.read_text() == direct
