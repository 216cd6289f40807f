"""The tracer's span arithmetic, its wrapping and restoring, and stdout identity."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import tracer
from perfbench.run import BENCH, child_env


def _span(i, name, start, end, parent=None, run="r", **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": run,
            "attrs": attrs}


SYNTHETIC = [
    _span(0, "cli.main", 0.0, 10.0),
    _span(1, "cli.get_table", 1.0, 4.0, parent=0),
    _span(2, "arith_core.sieve_dk", 2.0, 3.0, parent=1, entries=100),
    _span(3, "selberg.selberg_integral", 5.0, 9.0, parent=0, key=["J", 10, 2, "sliding", "residue"]),
    _span(4, "util.compensated_sum", 5.5, 6.5, parent=3, elements=10),
    _span(5, "util.compensated_sum", 6.5, 8.0, parent=3, elements=30),
    _span(6, "selberg.selberg_integral", 9.0, 9.5, parent=0, key=["J", 10, 2, "sliding", "residue"]),
    _span(7, "cli.get_table", 9.5, 9.75, parent=0),
]


def test_self_time_subtracts_children_only():
    selfs = tracer.self_times(SYNTHETIC)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5 - 0.25)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0 - 1.5)
    assert selfs[4] == pytest.approx(1.0)
    # the self times of a tree add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [_span(0, "a.x", 0.0, 4.0), _span(1, "a.y", 1.0, 3.0, parent=0),
             _span(2, "a.z", 2.0, 5.0, parent=0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_and_derived_counts():
    totals = tracer.layer_totals(SYNTHETIC)
    assert totals["util.compensated_sum"]["calls"] == 2
    assert totals["util.compensated_sum"]["elements"] == 40
    assert totals["util.compensated_sum"]["self_s"] == pytest.approx(2.5)
    assert tracer.module_self_times(SYNTHETIC) == pytest.approx(
        {"cli": 2.25 + 2.0 + 0.25, "arith_core": 1.0, "selberg": 1.5 + 0.5, "util": 2.5})
    assert tracer.cache_lookups(SYNTHETIC) == (2, 1)
    assert tracer.integral_calls(SYNTHETIC) == (2, 1)
    m = tracer.per_layer_metrics(SYNTHETIC)
    assert m["arith_core.table_cache.hit_ratio"] == 0.5
    assert m["selberg.integral.duplicate_calls"] == 1
    assert m["util.compensated_sum.ns_per_element"] == pytest.approx(2.5e9 / 40)
    assert m["arith_core.sieve_dk.ns_per_entry"] == pytest.approx(1e9 / 100)
    assert m["spectral.self_s"] == 0.0


def test_duplicates_are_per_run():
    a = _span(0, "selberg.selberg_integral", 0.0, 1.0, run="a", key=["J", 1, 1, "s", "r"])
    b = _span(1, "selberg.selberg_integral", 1.0, 2.0, run="b", key=["J", 1, 1, "s", "r"])
    assert tracer.integral_calls([a, b]) == (2, 0)


def _bindings():
    """Every (owner, name) -> object binding a target could occupy."""
    import selberg_lab.cli  # noqa: F401  (loads every module)
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "selberg_lab" or name.startswith("selberg_lab."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    from selberg_lab.arith_core import LogPolynomial
    out[("LogPolynomial", "__call__")] = LogPolynomial.__dict__["__call__"]
    return out


def test_install_wraps_every_binding_and_restore_puts_originals_back(tmp_path, capsys):
    from selberg_lab import cli, selberg, spectral
    from selberg_lab.arith_core import LogPolynomial

    before = _bindings()
    originals = (selberg.integral_pair, spectral.selberg_integral, spectral.compensated_sum,
                 LogPolynomial.__dict__["__call__"])
    t = tracer.Tracer("test")
    t.install()
    try:
        assert cli.integral_pair is selberg.integral_pair
        assert cli.integral_pair is not originals[0]
        assert spectral.selberg_integral is not originals[1]
        assert spectral.compensated_sum is selberg.compensated_sum
        assert spectral.compensated_sum is not originals[2]
        assert LogPolynomial.__dict__["__call__"] is not originals[3]
        assert cli.main(["selberg", "--n", "10000", "--h", "20",
                         "--cache-dir", str(tmp_path)]) == 0
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s["name"] for s in t.spans}
    assert {"cli.main", "cli.get_table", "arith_core.sieve_dk", "arith_core.logpoly",
            "selberg.integral_pair", "util.compensated_sum"} <= names
    assert all(s["run"] == "test" and s["end"] >= s["start"] for s in t.spans)
    m = tracer.per_layer_metrics(t.spans)
    assert m["arith_core.sieve_dk.entries"] == 2 * 10000 + 20 - (10000 - 20 + 1) + 1
    assert m["util.compensated_sum.elements"] == 2 * 10000
    assert m["arith_core.logpoly.evals"] == 5
    assert m["selberg.integral.calls"] == 2
    assert m["selberg.integral.duplicate_calls"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["time", "alloc"])
def test_traced_cell_prints_identical_stdout(tmp_path, mode):
    args = ["selberg", "--n", "10000", "--h", "20", "--cache-dir", str(tmp_path / "c")]
    env = child_env()
    plain = subprocess.run([sys.executable, "-m", "selberg_lab", *args],
                           capture_output=True, env=env, check=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "trace_child.py"), str(spans_path),
                             "t", mode, *args], capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text())["spans"]
    names = {s["name"] for s in spans}
    assert {"process.import", "cli.main", "selberg.integral_pair"} <= names
    assert all(("peak_alloc" in s) == (mode == "alloc" and s["name"] != "process.import")
               for s in spans)


def test_merged_processes_keep_their_own_trees():
    other = [{**s, "run": "r2"} for s in SYNTHETIC]
    merged = tracer.merge_spans(SYNTHETIC, other)
    assert [s["id"] for s in merged] == list(range(2 * len(SYNTHETIC)))
    assert merged[len(SYNTHETIC) + 2]["parent"] == len(SYNTHETIC) + 1
    assert sum(tracer.self_times(merged).values()) == pytest.approx(20.0)
    assert tracer.integral_calls(merged) == (4, 2)


def test_absent_target_is_skipped_and_changed_signature_is_marked():
    from selberg_lab import selberg

    t = tracer.Tracer("t")
    t.install([("selberg", "no_such_function", "selberg.none", None),
               ("selberg", "mean_value", "selberg.mean_value", lambda a, r: {"n": a["N"]})])
    try:
        assert selberg.mean_value(10, 2, selberg.LogPolynomial((1.0,))) == 2.0
    finally:
        t.restore()
    assert t.missing == ["selberg.no_such_function"]
    # mean_value has no parameter N: the span stays, its count is marked missing
    assert t.spans[0]["name"] == "selberg.mean_value" and t.spans[0]["attrs"] == {"uncounted": True}
