import concurrent.futures
import sys
from pathlib import Path

import pytest

# allow running the tests from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sparsebump.grid  # noqa: E402
import sparsebump.operators  # noqa: E402


@pytest.fixture
def spread(monkeypatch):
    """spread(block, cpus) sets `grid.BLOCK` and the CPU count that
    `grid.blockwise` sees, and returns the list that collects the worker
    count of every thread pool `blockwise` builds from then on."""
    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    def set_spread(block, cpus):
        monkeypatch.setattr(sparsebump.grid, "BLOCK", block)
        monkeypatch.setattr(sparsebump.grid, "available_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        return pools

    return set_spread


@pytest.fixture
def l2_stop(monkeypatch):
    """l2_stop(tol, steps=None) sets the stop rule of `exact_norm_l2` for one
    test: `operators.L2_TOL`, and `operators.L2_MAX_STEPS` when steps is
    given."""
    def set_stop(tol, steps=None):
        monkeypatch.setattr(sparsebump.operators, "L2_TOL", tol)
        if steps is not None:
            monkeypatch.setattr(sparsebump.operators, "L2_MAX_STEPS", steps)

    return set_stop
