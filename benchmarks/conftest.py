"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) and, besides timing it, writes the regenerated rows to
``benchmarks/out/<name>.txt`` so the reproduction artifacts survive the
run (pytest captures stdout by default).
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def pytest_configure(config):
    OUT_DIR.mkdir(exist_ok=True)
