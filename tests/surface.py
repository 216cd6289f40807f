"""Print the size of selberg_lab's source and public surface.

Run by hand from the repository root:

    python tests/surface.py

It prints two numbers:

- src_lines: the line count of src/selberg_lab/*.py, as `wc -l` gives it;
- settable_values: the parameters of every public function and public
  method (self and cls excluded, `__call__` included) plus the fields of
  every public dataclass (inherited fields included), over the modules
  below. A name is public when it does not start with "_" and is defined
  in the module that is scanned.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("_util", "arith_core", "asymptotics", "cli", "selberg", "spectral", "verification")


def _parameters(fn) -> int:
    return sum(1 for p in inspect.signature(fn).parameters if p not in ("self", "cls"))


def settable_values() -> int:
    total = 0
    for name in MODULES:
        mod = importlib.import_module(f"selberg_lab.{name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                total += _parameters(obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    total += len(dataclasses.fields(obj))
                for member, value in vars(obj).items():
                    if member.startswith("_") and member != "__call__":
                        continue
                    fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
                    if inspect.isfunction(fn):
                        total += _parameters(fn)
    return total


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (SRC / "selberg_lab").glob("*.py"))


def main() -> None:
    sys.path.insert(0, str(SRC))
    print(f"src_lines {src_lines()}")
    print(f"settable_values {settable_values()}")


if __name__ == "__main__":
    main()
