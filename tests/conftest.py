import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import selberg_lab
from selberg_lab import balanced_window
from selberg_lab.selberg import integral_pair
from selberg_lab.spectral import (
    autocorrelation,
    correlation_route_check,
    gallagher_check,
    route_correlation,
    three_range_split,
)

# Directory holding the selberg_lab package this session imported. It is
# absolute, so a child started in any working directory finds the same copy.
PACKAGE_ROOT = Path(selberg_lab.__file__).resolve().parents[1]


def cli_env(**overrides):
    """Environment for a `python -m selberg_lab` child process.

    The caller's environment with PACKAGE_ROOT first on PYTHONPATH and the
    ambient SELBERG_LAB_CACHE removed, so a child neither misses the package
    nor reads a table cache the calling shell happens to name. Keyword
    arguments are set on top (e.g. SELBERG_LAB_CACHE=...).
    """
    env = dict(os.environ)
    env.pop("SELBERG_LAB_CACHE", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT), inherited] if inherited else [str(PACKAGE_ROOT)]
    )
    env.update(overrides)
    return env


# The spectral checks take their integrals and correlations from the caller.
# These build them for the one call, as a caller without shared values would.


def route_check(f, N, H):
    return correlation_route_check(integral_pair(f, N, H), route_correlation(f))


def gallagher(f, N, h):
    return gallagher_check(integral_pair(f, N, h), autocorrelation(f))


def three_range(f, N, H, eps, E):
    return three_range_split(integral_pair(f, N, H), autocorrelation(f), eps, E)


@pytest.fixture(scope="session")
def balanced_1e5():
    """Balanced d_3 window at N = 10^5 with margin H = 80."""
    return balanced_window(10**5, 80)


@pytest.fixture(scope="session")
def balanced_1e6():
    """Balanced d_3 window at N = 10^6 with margin H = 31 (= floor(N^(1/4)))."""
    return balanced_window(10**6, 31)


@pytest.fixture(scope="session")
def balanced_1e4():
    """Balanced d_3 window at N = 10^4 with margin H = 40."""
    return balanced_window(10**4, 40)
