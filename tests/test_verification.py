import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import gallagher, route_check, three_range
from selberg_lab import balanced_window, cli, residue_polynomial, spectral
from selberg_lab.asymptotics import optimal_eps_E
from selberg_lab.selberg import integral_pair
from selberg_lab.spectral import CorrelationTable
from selberg_lab.verification import VerifyConfig, run_verification


def test_default_matrix_passes():
    records, failures = run_verification(VerifyConfig(cells=((2000, 10),)))
    assert failures == 0
    names = [r.check for r in records]
    assert names[0] == "kernel_localization"
    assert "exponent_algebra" in names
    assert "integral_sliding_vs_brute" in names


def test_records_are_json_clean():
    records, _ = run_verification(VerifyConfig(cells=((2000, 10),)))
    for r in records:
        rec = json.loads(json.dumps(asdict(r), sort_keys=True))
        assert {"check", "params", "lhs", "rhs", "ratio", "violations", "slack"} <= rec.keys()


def test_soft_checks_never_fail_run():
    records, failures = run_verification(VerifyConfig(cells=((2000, 10), (2000, 20))))
    soft = [r for r in records if not r.hard]
    assert soft  # ratio reports exist
    assert failures == sum(1 for r in records if r.hard and not r.ok)


def test_tampered_kernel_gives_exit_one(monkeypatch, capsys):
    def tampered(H):
        vals = np.maximum(H - 1 - np.abs(np.arange(-(H - 1), H)), 0).astype(float)
        return CorrelationTable(hmax=H - 1, values=vals)

    monkeypatch.setattr(spectral, "box_autocorrelation", tampered)
    code = cli.main(["verify", "--n", "2000", "--h", "10", "--grid", "16384"])
    capsys.readouterr()
    assert code == 1


def test_divisor_order_two_pipeline():
    # the whole pipeline also runs at k = 2 with the degree-1 polynomial
    N, H = 2000, 10
    f = balanced_window(N, H, k=2)
    q2 = residue_polynomial(2)
    assert len(q2.coeffs) - 1 == 1
    rep = integral_pair(f, N, H, q2)
    assert rep.J > 0 and rep.J_tilde > 0
    assert abs(float(np.mean(f.truncated()))) < 1.0


def test_shared_values_match_each_check_alone():
    # verify takes each integral and correlation once and hands it to every
    # check, slicing one route correlation per H; the records must carry the
    # floats each check gives with inputs built for it alone
    N, hs = 2000, (10, 20)
    records, _ = run_verification(VerifyConfig(cells=tuple((N, H) for H in hs)))
    f = balanced_window(N, max(hs))
    route = {r.params["H"]: r for r in records if r.check == "correlation_route"}
    gall = {r.params["h"]: r for r in records if r.check == "gallagher"}
    (three,) = [r for r in records if r.check == "three_range_split"]
    for H in hs:
        r = route_check(f, N, H)
        assert (route[H].lhs, route[H].rhs, route[H].ratio, route[H].slack) == (
            r.j_direct, r.j_corr, r.norm_diff_j, r.norm_diff_jt)
        g = gallagher(f, N, H)
        assert (gall[H].lhs, gall[H].rhs, gall[H].ratio) == (g.lhs, g.rhs, g.ratio)
    p = optimal_eps_E(0, min(hs))
    t = three_range(f, N, min(hs), p.eps, p.E)
    assert (three.lhs, three.rhs, three.slack) == (t.j_direct, t.majorant, t.slack)


def test_h_one_skips_the_three_range_split():
    # the balancing cutoffs need H >= 2; one small H must not abort the matrix
    records, failures = run_verification(VerifyConfig(cells=((2000, 1),)))
    assert failures == 0
    assert "three_range_split" not in [r.check for r in records]
    assert [r.params["H"] for r in records if r.check == "correlation_route"] == [1]


def test_correlation_route_record_layout():
    records, _ = run_verification(VerifyConfig(cells=((2000, 10),)))
    (rec,) = [asdict(r) for r in records if r.check == "correlation_route"]
    assert {"check", "params", "lhs", "rhs", "ratio"} <= rec.keys()
    assert rec["params"] == {"N": 2000, "H": 10}
    assert rec["hard"] is False and rec["lhs"] > 0 and rec["rhs"] > 0


_PLAIN = (bool, int, float, str, type(None))


def test_records_hold_plain_python_values():
    # asdict of a record is its JSON line; a numpy scalar (np.float64 is a
    # float subclass, np.bool_ is not a bool) would slip into it unconverted
    records, _ = run_verification(VerifyConfig(cells=((2000, 10), (2000, 20))))
    for r in records:
        for name, v in asdict(r).items():
            values = v.values() if type(v) is dict else [v]
            assert all(type(x) in _PLAIN for x in values), (r.check, name, v)


def _verify_lines(capsys, *argv):
    assert cli.main(["verify", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_verify_runs_one_block_per_n_and_theta_per_n(capsys):
    # the N-independent records come once, then each N's block in --n
    # order, line for line as the single-N runs give them
    both = _verify_lines(capsys, "--n", "2000", "--n", "5000", "--h", "10")
    single = [_verify_lines(capsys, "--n", str(N), "--h", "10") for N in (2000, 5000)]
    shared = [line for line in single[0] if '"N": ' not in line]
    assert shared == [line for line in single[1] if '"N": ' not in line]
    assert both == single[0] + single[1][len(shared):]
    assert [json.loads(line)["params"]["N"] for line in both[len(shared):]] == (
        [2000] * (len(single[0]) - len(shared)) + [5000] * (len(single[1]) - len(shared)))
    # --theta sets H = floor(N^theta) = 9 at N = 2000
    params = [json.loads(line)["params"] for line in _verify_lines(capsys, "--n", "2000", "--theta", "0.3")]
    assert {p.get("H", p.get("h")) for p in params if "N" in p} == {9}
