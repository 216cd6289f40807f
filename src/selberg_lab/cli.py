"""Command-line front end.

Subcommands: sieve (build/cache divisor tables), selberg (integral grid to
CSV/JSON), verify (run the verification matrix, JSON records), fit
(exponent fit over a grid, JSON). All output is deterministic: fixed
column order, floats printed with 17 significant digits, records emitted
in config order.

Exit codes: 0 all good, 1 a hard verification invariant failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import arith_core, asymptotics
from ._util import MAX_H_EXPONENT, at_most_power, floor_power
from .selberg import CSV_HEADER, MEAN_MODES, METHODS, integral_pair
from .verification import (
    CORRELATION_CHECK_LENGTH,
    DEFAULT_H,
    DEFAULT_N,
    VerifyConfig,
    run_verification,
)

CACHE_ENV = "SELBERG_LAB_CACHE"
DEFAULT_CACHE = ".selberg-cache"
# floor(N^theta) compares H^q with N^p exactly for theta = p/q; a larger q
# makes those integers too long to compare quickly
MAX_THETA_DENOMINATOR = 10**5


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    n_list: list[int]
    h_list: list[int] | None
    theta: Fraction | None
    k: int
    mean_mode: str
    method: str
    hmax: int
    grid_m: int
    out_format: str
    out_path: str | None
    cache_dir: Path
    delta: float
    eta: float
    inject: list[float] | None

    def cells(self, integrals: bool = True) -> list[tuple[int, int]]:
        """The (N, H) grid, in config order, checked whole before any cell is
        computed. With `integrals` every H must also be <= N/4, as J and J~ need."""
        if not self.n_list:
            raise ConfigError("at least one --n is required")
        if self.theta is None and not self.h_list:
            raise ConfigError("provide --h or --theta")
        out = []
        for N in self.n_list:
            if N < 1:
                raise ConfigError(f"N must be >= 1, got {N}")
            if self.theta is not None:
                hs = [floor_power(N, self.theta)]
            else:
                hs = self.h_list
            for H in hs:
                if not (1 <= H and at_most_power(H, N, MAX_H_EXPONENT)):
                    raise ConfigError(f"H={H} outside [1, N^0.49] at N={N}")
                if integrals and H > N // 4:
                    raise ConfigError(f"H={H} too large for N={N} (need H <= N/4)")
                out.append((N, H))
        return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="selberg-lab",
        description="Selberg-integral laboratory for the three-divisor function",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("sieve", "sieve and cache divisor tables for each N window"),
        ("selberg", "compute J and J~ on the (N, H) grid"),
        ("verify", "run the verification matrix"),
        ("fit", "fit the modified-integral exponent on the grid"),
    ):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--n", action="append", type=int, help="window size N (repeatable)")
        q.add_argument("--h", action="append", type=int, help="interval length H (repeatable)")
        q.add_argument("--theta", type=Fraction,
                       help="derive H = floor(N^theta), theta in (0, 0.49], a decimal or p/q")
        q.add_argument("--k", type=int, default=3, help="divisor order (default 3)")
        q.add_argument("--mean", choices=MEAN_MODES, default="residue", help="subtracted mean convention")
        q.add_argument("--method", choices=METHODS, default="sliding", help="integral evaluation method")
        q.add_argument("--hmax", type=int, default=64,
                       help=f"max shift of verify's FFT-vs-direct check, 0 to {CORRELATION_CHECK_LENGTH - 1}")
        q.add_argument("--grid", type=int, default=1 << 16, help="grid points for scans/quadrature")
        q.add_argument("--threads", type=int, default=1, help="accepted for compatibility; execution is deterministic")
        q.add_argument("--out", help="output path (default stdout)")
        q.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
        q.add_argument("--cache-dir", help=f"table cache directory (or ${CACHE_ENV})")
        if name == "fit":
            q.add_argument("--delta", type=float, default=0.1, help="admissible band parameter")
            q.add_argument("--eta", type=float, default=0.1, help="minimum growth exponent, H >= N^eta")
            q.add_argument("--inject", action="append", type=float,
                           help="supply J~ directly for each grid cell (synthetic mode)")
    return p


def _config_from_args(args) -> RunConfig:
    if args.theta is not None:
        if args.h:
            raise ConfigError("--theta and --h are mutually exclusive")
        if not 0 < args.theta <= MAX_H_EXPONENT:
            raise ConfigError("theta must lie in (0, 0.49]")
        if args.theta.denominator > MAX_THETA_DENOMINATOR:
            raise ConfigError(f"theta must have a denominator of at most {MAX_THETA_DENOMINATOR}")
    if args.k < 2:
        raise ConfigError("k must be >= 2")
    if args.threads < 1:
        raise ConfigError("threads must be >= 1")
    if not 0 <= args.hmax < CORRELATION_CHECK_LENGTH:
        raise ConfigError(f"--hmax must lie in [0, {CORRELATION_CHECK_LENGTH - 1}], got {args.hmax}")
    cache = args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    default_fmt = "csv" if args.command == "selberg" else "json"
    return RunConfig(
        n_list=args.n or [],
        h_list=args.h,
        theta=args.theta,
        k=args.k,
        mean_mode=args.mean,
        method=args.method,
        hmax=args.hmax,
        grid_m=args.grid,
        out_format=args.format or default_fmt,
        out_path=args.out,
        cache_dir=Path(cache),
        delta=getattr(args, "delta", 0.1),
        eta=getattr(args, "eta", 0.1),
        inject=getattr(args, "inject", None),
    )


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out_path:
        Path(cfg.out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cache_path(cfg: RunConfig, N: int, H: int) -> Path:
    return cfg.cache_dir / f"d{cfg.k}_N{N}_H{H}.bin"


def _bounds(N: int, H: int) -> tuple[int, int]:
    """First and last n of the cell window ]N-H, 2N+H]."""
    return max(N - H + 1, 1), 2 * N + H


class _SieveMemo:
    """The sieved table of the current N, on the window of the largest H among
    N's grid cells. Every cell of that N that must be sieved is a slice of it,
    so N is sieved once; coming back to an N already left sieves it again."""

    def __init__(self, k: int, cells):
        self.k = k
        self.hmax: dict[int, int] = {}
        for N, H in cells:
            self.hmax[N] = max(H, self.hmax.get(N, H))
        self.table = None

    def window(self, N: int, H: int) -> arith_core.DivisorTable:
        lo, hi = _bounds(N, self.hmax[N])
        if self.table is None or (self.table.lo, self.table.hi) != (lo, hi):
            self.table = arith_core.sieve_dk(lo, hi, self.k)
        lo, hi = _bounds(N, H)
        return arith_core.DivisorTable(lo=lo, values=self.table.slice(lo - 1, hi), k=self.k)


def _load_or_sieve(cfg: RunConfig, N: int, H: int, memo: _SieveMemo):
    """The (N, H) table on ]N-H, 2N+H] and its cache status: "cache hit", or cut
    from N's table in `memo` because the file is missing ("written") or unreadable
    or of another window ("rewritten")."""
    path = _cache_path(cfg, N, H)
    lo, hi = _bounds(N, H)
    if path.is_file():
        try:
            table = arith_core.load_table(path)
            if (table.lo, table.hi, table.k) == (lo, hi, cfg.k):
                return table, "cache hit"
        except ValueError:  # truncated or not a table file
            pass
    status = "rewritten" if path.is_file() else "written"
    return memo.window(N, H), status


def _get_table(cfg: RunConfig, N: int, H: int, memo: _SieveMemo):
    return _load_or_sieve(cfg, N, H, memo)[0]


def cmd_sieve(cfg: RunConfig) -> int:
    cells = cfg.cells(integrals=False)
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    memo = _SieveMemo(cfg.k, cells)
    lines = []
    for N, H in cells:
        path = _cache_path(cfg, N, H)
        table, status = _load_or_sieve(cfg, N, H, memo)
        if status != "cache hit":
            arith_core.save_table(table, path)
        lines.append(
            f"sieve k={cfg.k} N={N} H={H} entries={len(table.values)} path={path} [{status}]"
        )
    _emit(cfg, "".join(line + "\n" for line in lines))
    return 0


def _integral_reports(cfg: RunConfig, cells):
    """integral_pair of each (N, H) cell, on its table balanced by the residue polynomial."""
    poly = arith_core.residue_polynomial(cfg.k)
    memo = _SieveMemo(cfg.k, cells)
    for N, H in cells:
        # no name holds a cell's table or f, so neither lives into the next cell
        yield integral_pair(arith_core.balanced_sequence(_get_table(cfg, N, H, memo), poly, N, H),
                            N, H, poly, cfg.method, cfg.mean_mode)


def cmd_selberg(cfg: RunConfig) -> int:
    rows = list(_integral_reports(cfg, cfg.cells()))
    if cfg.out_format == "csv":
        text = CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in rows)
    else:
        text = "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in rows)
    _emit(cfg, text)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """The matrix on the grid of --n (default DEFAULT_N) and --h or --theta
    (default DEFAULT_H); it sieves its own windows and reads no cache."""
    grid = replace(cfg, n_list=cfg.n_list or [DEFAULT_N], h_list=cfg.h_list or list(DEFAULT_H))
    vcfg = VerifyConfig(cells=tuple(grid.cells()), hmax=cfg.hmax, grid_m=cfg.grid_m, k=cfg.k)
    records, failures = run_verification(vcfg)
    _emit(cfg, "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records))
    return 1 if failures else 0


def cmd_fit(cfg: RunConfig) -> int:
    cells = cfg.cells(integrals=cfg.inject is None)
    if cfg.inject is not None:
        if len(cfg.inject) != len(cells):
            raise ConfigError(
                f"--inject count {len(cfg.inject)} does not match {len(cells)} grid cells"
            )
        samples = [(N, H, jt) for (N, H), jt in zip(cells, cfg.inject)]
    else:
        samples = [(r.N, r.H, r.J_tilde) for r in _integral_reports(cfg, cells)]
    try:
        fit = asymptotics.fit_exponent(samples, delta=cfg.delta, eta=cfg.eta)
    except ValueError as e:
        raise ConfigError(str(e))
    _emit(cfg, json.dumps(asdict(fit), sort_keys=True) + "\n")
    return 0


_COMMANDS = {"sieve": cmd_sieve, "selberg": cmd_selberg, "verify": cmd_verify, "fit": cmd_fit}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
