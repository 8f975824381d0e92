import contextlib
import math
import sys

import pytest

from addcomb.groups import ORDER_CAP

#: Each tuned crossover constant, by the name forced() takes it under: the
#: module attribute the library reads at call time, and its two sides.
CROSSOVERS = {
    # sumset: the named route is free and the other is not
    "route": ("addcomb.sets.SUMSET_COST", {"direct": (0.0, 0.0, 1.0, 1.0),
                                           "spectral": (1.0, 1.0, 0.0, 0.0)}),
    # the spectrum index: no zoom is cheaper than the full transform, or
    # every admissible zoom is
    "grid": ("addcomb.spectrum.GRID_COST", {"full": (math.inf,) * 3, "zoom": (0.0,) * 3}),
    # GroupSet's form: a pass over the mask is never cheaper (every set holds
    # its sorted indices), or always (one past the order cap)
    "index": ("addcomb.sets.INDEX_COST", {"indices": (0, 0), "mask": (2 * ORDER_CAP, 0)}),
    # a Bohr table's exact rows run over the whole half domain, or are
    # gathered whenever anything is sieved
    "gather": ("addcomb.bohr.GATHER_SHARE", {"never": 0.0, "always": 1.0}),
    # the 16-bit pre-sieve runs every row, or stops at its first drop
    "stop": ("addcomb.bohr.STOP_SHARE", {"every row": 0.0, "first drop": 1.0}),
    # one row per block (survivors compacted after every row), or every row in
    # one block
    "block": ("addcomb.bohr.BLOCK_CELLS", {"one row": 1, "one block": 1 << 40}),
}


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
def forced():
    """forced(**sides): a context in which each crossover of CROSSOVERS
    named by a keyword takes the named side (None leaves it as it is), by
    rebinding the attribute the library reads at call time, e.g.
    forced(route="direct") or forced(gather="always", stop="first drop").
    It holds no state, so hypothesis tests may use it."""

    @contextlib.contextmanager
    def force(**sides):
        with pytest.MonkeyPatch.context() as patch:
            for name, side in sides.items():
                if side is not None:
                    target, values = CROSSOVERS[name]
                    patch.setattr(target, values[side])
            yield

    return force
