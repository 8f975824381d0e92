import contextlib
import math
import sys

import pytest

#: A sumset cost model (c0, c1, c2, c3) under which the named route is free
#: and the other is not.
FREE_ROUTE = {"direct": (0.0, 0.0, 1.0, 1.0), "spectral": (1.0, 1.0, 0.0, 0.0)}

#: Prices (fixed part, exponential, multiply-add) of spectrum.GRID_COST under
#: which the named grid wins the count: no zoom is cheaper than the full
#: transform, or every admissible zoom is.
FORCED_GRID = {"full": (math.inf,) * 3, "zoom": (0.0,) * 3}


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(module, name): rebind module.name wherever an addcomb
    namespace holds it, and return the list that logs each call's args.
    A list passed as results also collects each call's return value."""

    def record(module, name: str, results: list | None = None) -> list:
        original = getattr(module, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            out = original(*args, **kwargs)
            if results is not None:
                results.append(out)
            return out

        for modname, mod in list(sys.modules.items()):
            if modname == "addcomb" or modname.startswith("addcomb."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, attr, recording)
        return calls

    return record


@pytest.fixture(scope="session")
def forced_route():
    """forced_route(route): a context in which every addcomb.sets.sumset that
    runs a route takes route ("direct" or "spectral"), by rebinding
    sets.SUMSET_COST, which the route rule reads at call time. It holds no
    state, so hypothesis tests may use it."""

    @contextlib.contextmanager
    def force(route: str):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("addcomb.sets.SUMSET_COST", FREE_ROUTE[route])
            yield

    return force


@pytest.fixture(scope="session")
def forced_grid():
    """forced_grid(grid): a context in which every spectrum.spectrum_index
    takes the full transform ("full") or, wherever some coarse grid admits
    a zoom, the zoom on the smallest such grid ("zoom"), by rebinding
    spectrum.GRID_COST, which the grid rule reads at call time. It holds no
    state, so hypothesis tests may use it."""

    @contextlib.contextmanager
    def force(grid: str):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("addcomb.spectrum.GRID_COST", FORCED_GRID[grid])
            yield

    return force


@pytest.fixture(scope="session")
def kernel_constants():
    """kernel_constants(share, stop, block_cells): a context in which every
    bohr.bohr_distance_table runs with another gather share, pre-sieve stop
    share and block size, by rebinding bohr.GATHER_SHARE, bohr.STOP_SHARE and
    bohr.BLOCK_CELLS, which the kernel reads at call time. It holds no
    state, so hypothesis tests may use it."""

    @contextlib.contextmanager
    def force(share: float, stop: float, block_cells: int):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("addcomb.bohr.GATHER_SHARE", share)
            patch.setattr("addcomb.bohr.STOP_SHARE", stop)
            patch.setattr("addcomb.bohr.BLOCK_CELLS", block_cells)
            yield

    return force
