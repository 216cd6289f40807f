"""Spans and work counters around selberg_lab's layers, from outside the package.

`Tracer.install` replaces each traced function at every module binding
that holds it (a function imported by name into another module is
another binding, e.g. `selberg.integral_pair` and `cli.integral_pair`),
so every caller goes through the wrapper. Each call records a span:
name, start, end, parent span, run id, the exact work counts taken from
its arguments or result, and, when `tracemalloc` is tracing, the peak of
traced memory above the span's starting level. `Tracer.restore` puts
every original binding back.

The summary functions are pure: they turn a list of span records into
per-layer totals and the named metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "selberg_lab"
# span-name prefixes: the package's modules, plus "process" for the
# interpreter's import of the package in a traced child
MODULES = ("process", "cli", "verification", "asymptotics", "spectral", "selberg",
           "util", "arith_core")


def _size(v) -> int:
    size = getattr(v, "size", None)
    if isinstance(size, int):
        return size
    return len(v) if hasattr(v, "__len__") else 1


def _pow2_at_least(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _deviation_name(kind):
    def name(a):
        return "selberg.brute" if a.get("method") == "brute" else f"selberg.{kind}"
    return name


def _integral_key(kind):
    def attrs(a, result):
        return {"key": [kind, a["N"], a["H"], a["method"], a["mean_mode"]]}
    return attrs


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (module, attribute, span name or name(arguments), counts(arguments, result) or None).
# The span name's first component is the layer's module ("util" for _util).
TARGETS = [
    ("arith_core", "sieve_dk", "arith_core.sieve_dk",
     lambda a, r: {"entries": a["hi"] - a["lo"] + 1}),
    ("arith_core", "balanced_sequence", "arith_core.balanced_sequence", None),
    ("arith_core", "balanced_window", "arith_core.balanced_window", None),
    ("arith_core", "residue_polynomial", "arith_core.residue_polynomial", None),
    ("arith_core", "summatory_polynomial", "arith_core.summatory_polynomial", None),
    ("arith_core", "save_table", "arith_core.save_table", _file_bytes),
    ("arith_core", "load_table", "arith_core.load_table", _file_bytes),
    ("arith_core", "LogPolynomial.__call__", "arith_core.logpoly",
     lambda a, r: {"points": _size(a["L"])}),
    ("_util", "compensated_sum", "util.compensated_sum",
     lambda a, r: {"elements": _size(a["values"])}),
    ("selberg", "short_sum", "selberg.short_sum", None),
    ("selberg", "cesaro_sum", "selberg.cesaro_sum", None),
    ("selberg", "mean_value", "selberg.mean_value", None),
    ("selberg", "box_deviations", _deviation_name("box_deviations"), None),
    ("selberg", "triangle_deviations", _deviation_name("triangle_deviations"), None),
    ("selberg", "selberg_integral", "selberg.selberg_integral", _integral_key("J")),
    ("selberg", "modified_selberg_integral", "selberg.modified_selberg_integral",
     _integral_key("J_tilde")),
    ("selberg", "integral_pair", "selberg.integral_pair", None),
    ("spectral", "correlation", "spectral.correlation",
     lambda a, r: {"fft_points": _pow2_at_least(2 * len(a["f"])) if a["method"] == "fft" else 0}),
    # same FFT correlation layer, all lags at once (band_energy's route)
    ("spectral", "full_correlation", "spectral.correlation",
     lambda a, r: {"fft_points": _pow2_at_least(2 * len(a["f"]))}),
    ("spectral", "box_autocorrelation", "spectral.box_autocorrelation", None),
    ("spectral", "triangle_autocorrelation", "spectral.triangle_autocorrelation", None),
    ("spectral", "dirichlet_kernel_abs", "spectral.dirichlet_kernel_abs", None),
    ("spectral", "kernel_profile", "spectral.kernel_profile", None),
    ("spectral", "kernel_localization_check", "spectral.kernel_localization_check", None),
    ("spectral", "spectral_energy", "spectral.spectral_energy", None),
    ("spectral", "band_energy", "spectral.band_energy", None),
    ("spectral", "correlation_route_check", "spectral.correlation_route_check", None),
    ("spectral", "gallagher_check", "spectral.gallagher_check", None),
    ("spectral", "three_range_split", "spectral.three_range_split",
     lambda a, r: {"grid_points": r.grid_m}),
    ("asymptotics", "exponent_map", "asymptotics.exponent_map", None),
    ("asymptotics", "balance_check", "asymptotics.balance_check", None),
    ("asymptotics", "optimal_eps_E", "asymptotics.optimal_eps_E", None),
    ("asymptotics", "fit_exponent", "asymptotics.fit_exponent", None),
    ("asymptotics", "lower_bound_ratio", "asymptotics.lower_bound_ratio", None),
    ("asymptotics", "conjecture_ratio", "asymptotics.conjecture_ratio", None),
    ("verification", "run_verification", "verification.run_verification", None),
    # a table-cache lookup: a hit when no sieve_dk span runs inside it
    ("cli", "_get_table", "cli.get_table", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._origin = time.perf_counter_ns()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _now(self) -> float:
        return (time.perf_counter_ns() - self._origin) * 1e-9

    def _enter(self, name: str) -> dict:
        tracing = tracemalloc.is_tracing()
        if tracing:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack and "_max" in self._stack[-1]:
                top = self._stack[-1]
                top["_max"] = max(top["_max"], peak)
            tracemalloc.reset_peak()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": self._now(),
            "end": None,
            "attrs": {},
        }
        if tracing:
            span["_base"] = span["_max"] = current
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = self._now()
        self._stack.pop()
        if "_base" in span:
            peak = max(span.pop("_max"), tracemalloc.get_traced_memory()[1])
            span["peak_alloc"] = peak - span.pop("_base")
            if self._stack and "_max" in self._stack[-1]:
                parent = self._stack[-1]
                parent["_max"] = max(parent["_max"], peak)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def wrap(self, fn, name, counts=None):
        """`fn` with a span around every call; `name` may be a function of the arguments."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or counts is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            span = self._enter(name(a) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counts is not None:
                try:
                    span["attrs"].update(counts(a, result))
                except (KeyError, AttributeError, TypeError):
                    # the function's signature or result changed shape; keep
                    # the span, mark its work as not counted
                    span["attrs"]["uncounted"] = True
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every binding inside the loaded package.

        A target the program no longer defines (a later change may remove
        or rename a function) is listed in `missing`; its metrics read 0.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, attr, name, counts in targets:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            orig = vars(owner).get(meth) if owner is not None else None
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if owner_name:
                self._patch(owner, meth, self.wrap(orig, name, counts))
                continue
            wrapper = self.wrap(orig, name, counts)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, "__dict__", {})[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put back every binding `install` replaced, newest first."""
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": self.spans}, fh)


def merge_spans(*span_lists: list[dict]) -> list[dict]:
    """Concatenate the spans of several processes, renumbering ids to stay unique."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            out.append({**s, "id": s["id"] + base, "parent": parent})
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed counts, peak allocation."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "peak_alloc": 0})
        t["calls"] += 1
        t["total_s"] += s["end"] - s["start"]
        t["self_s"] += selfs[s["id"]]
        t["peak_alloc"] = max(t["peak_alloc"], s.get("peak_alloc", 0))
        for k, v in s["attrs"].items():
            if isinstance(v, (int, float)):
                t[k] = t.get(k, 0) + v
    return out


def module_self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds summed by the first component of the span name."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += selfs[s["id"]]
    return dict(out)


def _descendant_names(spans: list[dict]) -> dict[int, set[str]]:
    by_id = {s["id"]: s for s in spans}
    out: dict[int, set[str]] = defaultdict(set)
    for s in spans:
        p = s["parent"]
        while p is not None:
            out[p].add(s["name"])
            p = by_id[p]["parent"]
    return out


def cache_lookups(spans: list[dict]) -> tuple[int, int]:
    """(lookups, hits): a `cli.get_table` span is a hit when it ran no sieve."""
    desc = _descendant_names(spans)
    lookups = [s for s in spans if s["name"] == "cli.get_table"]
    hits = sum(1 for s in lookups if "arith_core.sieve_dk" not in desc[s["id"]])
    return len(lookups), hits


def integral_calls(spans: list[dict]) -> tuple[int, int]:
    """(calls, duplicates) of the J and J~ integrals.

    A call is a duplicate when the same integral was already computed in
    the same run for the same (N, H, method, mean_mode).
    """
    seen = set()
    calls = dups = 0
    for s in sorted(spans, key=lambda s: s["start"]):
        key = s["attrs"].get("key")
        if key is None:
            continue
        key = (s["run"], *key)
        calls += 1
        dups += key in seen
        seen.add(key)
    return calls, dups


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The span-derived per-layer metrics, by the benchmark's metric names."""
    t = layer_totals(spans)

    def get(name, field="self_s"):
        return t.get(name, {}).get(field, 0)

    def per(num_s, count):
        return num_s * 1e9 / count if count else 0.0

    mb = 1 / (1024 * 1024)
    lookups, hits = cache_lookups(spans)
    calls, dups = integral_calls(spans)
    selberg_peak = max((v["peak_alloc"] for k, v in t.items() if k.startswith("selberg.")),
                       default=0)
    out = {
        "arith_core.sieve_dk.self_s": get("arith_core.sieve_dk"),
        "arith_core.sieve_dk.entries": get("arith_core.sieve_dk", "entries"),
        "arith_core.sieve_dk.ns_per_entry": per(get("arith_core.sieve_dk", "total_s"),
                                                get("arith_core.sieve_dk", "entries")),
        "arith_core.save_table.self_s": get("arith_core.save_table"),
        "arith_core.save_table.bytes": get("arith_core.save_table", "bytes"),
        "arith_core.load_table.self_s": get("arith_core.load_table"),
        "arith_core.load_table.bytes": get("arith_core.load_table", "bytes"),
        "arith_core.table_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "arith_core.balanced_sequence.self_s": get("arith_core.balanced_sequence"),
        "arith_core.logpoly.self_s": get("arith_core.logpoly"),
        "arith_core.logpoly.evals": get("arith_core.logpoly", "calls"),
        "arith_core.logpoly.points": get("arith_core.logpoly", "points"),
        "selberg.box_deviations.self_s": get("selberg.box_deviations"),
        "selberg.triangle_deviations.self_s": get("selberg.triangle_deviations"),
        "selberg.brute.self_s": get("selberg.brute"),
        "selberg.integral.calls": calls,
        "selberg.integral.duplicate_calls": dups,
        "selberg.peak_alloc_mb": selberg_peak * mb,
        "util.compensated_sum.self_s": get("util.compensated_sum"),
        "util.compensated_sum.elements": get("util.compensated_sum", "elements"),
        "util.compensated_sum.ns_per_element": per(get("util.compensated_sum", "total_s"),
                                                   get("util.compensated_sum", "elements")),
        "spectral.three_range_split.self_s": get("spectral.three_range_split"),
        "spectral.three_range_split.grid_points": get("spectral.three_range_split", "grid_points"),
        "spectral.three_range_split.peak_alloc_mb":
            get("spectral.three_range_split", "peak_alloc") * mb,
        "spectral.correlation.self_s": get("spectral.correlation"),
        "spectral.correlation.calls": get("spectral.correlation", "calls"),
        "spectral.correlation.fft_points": get("spectral.correlation", "fft_points"),
        "spectral.band_energy.self_s": get("spectral.band_energy"),
        "spectral.correlation_route_check.self_s": get("spectral.correlation_route_check"),
        "spectral.gallagher_check.self_s": get("spectral.gallagher_check"),
        "spectral.kernel_localization_check.self_s": get("spectral.kernel_localization_check"),
        "verification.run_verification.self_s": get("verification.run_verification"),
        "asymptotics.fit_exponent.self_s": get("asymptotics.fit_exponent"),
        "cli.main.self_s": get("cli.main"),
    }
    module_self = module_self_times(spans)
    for module in MODULES:
        out[f"{module}.self_s"] = module_self.get(module, 0.0)
    return out
