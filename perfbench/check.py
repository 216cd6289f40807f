"""Correctness gate for one run of a workload's command.

A run passes when its exit status is 0, its output has the documented
schema and row count, no `verify` record is a failed hard check, and
every science value lies within its relative tolerance of the reference
computed for the same input variant at the commit that defined the
benchmark (`reference.json`). The stdout digest is recorded by the
caller but is not part of the gate: a later change may legitimately
alter bytes (e.g. an exact three-range split changes `verify` digits).
"""

from __future__ import annotations

import json
import math

CSV_HEADER = "N,H,J,J_tilde,ratio_J,ratio_J_tilde,lower_ratio,method,mean_mode"
VERIFY_KEYS = {"check", "params", "lhs", "rhs", "ratio", "violations", "slack", "hard", "ok",
               "note"}
FIT_KEYS = {"samples", "slope", "A_hat", "residual", "H_range", "delta", "empirical_only"}

# Relative tolerances against the reference. J and J~ are exactly rounded
# sums, so only a reordering of exact-integer work may move them, far below
# 1e-9. The correlation-route discrepancy is a difference of two ~1e10
# sums, so FFT rounding moves it near 1e-8. The Gallagher ratio rests on a
# band energy built from an FFT correlation. The three-range slack comes
# from a quadrature grid that an exact split may replace (agreement 1e-6
# per term).
DEFAULT_RTOL = 1e-9
RTOL = {
    "correlation_route": 1e-6,
    "gallagher": 1e-8,
    "three_range_split": 1e-4,
}


class GateError(Exception):
    pass


def _float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise GateError(f"non-finite value {text!r}")
    return v


def _selberg_science(text: str, cells) -> dict[str, float]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise GateError("CSV header differs from the documented schema")
    if len(lines) != 1 + len(cells):
        raise GateError(f"expected {len(cells)} CSV rows, got {len(lines) - 1}")
    out = {}
    for line, (N, H) in zip(lines[1:], cells):
        f = line.split(",")
        if len(f) != 9:
            raise GateError(f"CSV row has {len(f)} fields, expected 9")
        if (int(f[0]), int(f[1])) != (N, H) or f[7:] != ["sliding", "residue"]:
            raise GateError(f"CSV row {f[0]},{f[1]},{f[7]},{f[8]} is not cell ({N}, {H})")
        for name, v in zip(("J", "J_tilde", "ratio_J", "ratio_J_tilde", "lower_ratio"), f[2:7]):
            out[f"{name}.H{H}"] = _float(v)
    return out


def _verify_science(text: str, cells) -> dict[str, float]:
    out = {}
    records = []
    for line in text.splitlines():
        rec = json.loads(line)
        if not isinstance(rec, dict) or set(rec) != VERIFY_KEYS:
            raise GateError("verify record keys differ from the documented schema")
        records.append(rec)
        if rec["hard"] is True and rec["ok"] is not True:
            raise GateError(f"hard check {rec['check']} {rec['params']} failed")
    out["records"] = len(records)
    for rec in records:
        p = rec["params"]
        if rec["check"] == "correlation_route":
            out[f"J.H{p['H']}"] = _float(rec["lhs"])
            out[f"correlation_route.H{p['H']}.J"] = _float(rec["ratio"])
            out[f"correlation_route.H{p['H']}.J_tilde"] = _float(rec["slack"])
        elif rec["check"] == "gallagher":
            out[f"gallagher.h{p['h']}.ratio"] = _float(rec["ratio"])
        elif rec["check"] == "three_range_split":
            out["three_range_split.slack"] = _float(rec["slack"])
    return out


def _fit_science(text: str, cells) -> dict[str, float]:
    lines = text.splitlines()
    if len(lines) != 1:
        raise GateError(f"fit prints one JSON line, got {len(lines)}")
    rec = json.loads(lines[0])
    if not isinstance(rec, dict) or set(rec) != FIT_KEYS:
        raise GateError("fit record keys differ from the documented schema")
    samples = rec["samples"]
    if [(s[0], s[1]) for s in samples] != list(cells):
        raise GateError("fit samples do not match the grid cells")
    out = {f"J_tilde.H{H}": _float(jt) for _, H, jt in samples}
    for key in ("slope", "A_hat", "residual"):
        out[key] = _float(rec[key])
    return out


_SCIENCE = {"selberg": _selberg_science, "verify": _verify_science, "fit": _fit_science}


def science(command: str, text: str, cells) -> dict[str, float]:
    """Validate one command's stdout and extract its science values."""
    try:
        return _SCIENCE[command](text, cells)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise GateError(f"malformed output: {e!r}") from e


def rtol(key: str) -> float:
    return RTOL.get(key.split(".")[0], DEFAULT_RTOL)


def gate(command: str, returncode: int, text: str, cells, reference: dict) -> tuple[list[str], dict]:
    """(problems, science values) for one run; no problems means it passed."""
    if returncode != 0:
        return [f"exit status {returncode}"], {}
    try:
        values = science(command, text, cells)
    except GateError as e:
        return [str(e)], {}
    expected = reference["science"]
    problems = []
    if set(values) != set(expected):
        problems.append(f"science keys {sorted(values)} differ from reference {sorted(expected)}")
    for key in sorted(set(values) & set(expected)):
        v, ref = values[key], expected[key]
        if abs(v - ref) > rtol(key) * abs(ref):
            problems.append(f"{key}={v!r} outside rtol {rtol(key)} of reference {ref!r}")
    return problems, values
