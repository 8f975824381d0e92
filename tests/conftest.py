import sys

import pytest


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
