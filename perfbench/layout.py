"""Where the benchmark finds the folp sources and keeps its outputs.

The benchmark runs from a checkout of the repository: the library is
imported from `src/` next to this directory, never from an installed
copy, so a run measures exactly the code of that checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
OUT = ROOT / ".perfbench-out"


class BenchError(Exception):
    """The benchmark cannot run: missing sources or altered inputs."""


def use_checkout_sources() -> None:
    """Put the checkout's `src/` first on the import path; refuse to run
    without it rather than fall back to another copy of folp."""
    if not (SRC / "folp" / "__init__.py").is_file():
        raise BenchError(f"no folp sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
