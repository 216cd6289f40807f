"""The benchmark's workloads and how a seed picks each one's inputs.

Each workload is one `python -m selberg_lab` command. A seed selects one
of `VARIANTS` shipped input variants: variant 0 is the exact argv the
workload is named after, and the others move N by at most 0.5% so that
every size stays where the workload's reason for existing holds (the
same H, the same FFT grid, the same cache behaviour). Reference outputs
for every variant are shipped in `reference.json`, so the correctness
gate never needs a second implementation at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
MAX_SHIFT = 0.005  # largest relative move of N away from the named size


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the selberg_lab subcommand that is timed
    n0: int
    h_list: tuple[int, ...] = ()
    theta: str | None = None
    # cache directory filled by `sieve` during set-up and read by the timed
    # command; without it every timed run gets a fresh empty directory
    warm_cache: bool = False


# Why each workload exists is recorded in BENCHMARK.json, which lists the
# workloads whose runs are bounded. selberg_1e7 is not among them. It is the
# one-huge-cell path: a cold sieve plus integral_pair on 80 MB arrays, with
# a peak of 1.1 GB. Its time follows how fast the host maps that memory,
# which calibrate.py does not track. Over ten seeds its quartile spread
# reached 25% of the median, scaled or not. It still runs by hand
# (`--workload selberg_1e7`) for the N = 10^7 figures; read its unscaled
# median there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="selberg_1e7",
            command="selberg",
            n0=10_000_000,
            theta="0.25",
        ),
        Workload(
            name="verify_1e5",
            command="verify",
            n0=100_000,
            h_list=(10, 20),
        ),
        Workload(
            name="fit_cached_1e6",
            command="fit",
            n0=1_000_000,
            h_list=(8, 16, 32, 64, 128, 250),
            warm_cache=True,
        ),
    )
}


def variant_of(seed: int) -> int:
    """The shipped input variant a seed selects (seed 0 gives variant 0)."""
    return seed % VARIANTS


def n_for(workload: Workload, variant: int) -> int:
    """N for one variant: n0 itself for variant 0, else within MAX_SHIFT of it."""
    if variant == 0:
        return workload.n0
    rng = random.Random(f"{workload.name}/{variant}")
    return workload.n0 + round(workload.n0 * MAX_SHIFT * rng.uniform(-1.0, 1.0))


def grid_args(workload: Workload, N: int) -> list[str]:
    args = ["--n", str(N)]
    if workload.theta is not None:
        args += ["--theta", workload.theta]
    for H in workload.h_list:
        args += ["--h", str(H)]
    return args


def timed_argv(workload: Workload, N: int, cache_dir: str) -> list[str]:
    """Arguments after `python -m selberg_lab` for the timed command."""
    return [workload.command, *grid_args(workload, N), "--cache-dir", cache_dir]


def setup_argv(workload: Workload, N: int, cache_dir: str) -> list[str] | None:
    """The cache-filling command run during set-up, or None."""
    if not workload.warm_cache:
        return None
    return ["sieve", *grid_args(workload, N), "--cache-dir", cache_dir]


def cells(workload: Workload, N: int) -> list[tuple[int, int]]:
    """The (N, H) cells the timed command computes, in output order."""
    if workload.theta is not None:
        return [(N, int(N ** float(workload.theta)))]
    return [(N, H) for H in workload.h_list]
