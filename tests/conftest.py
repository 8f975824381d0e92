import sys

import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(module, name): rebind module.name wherever an addcomb
    namespace holds it, and return the list that logs each call's args."""

    def record(module, name: str) -> list:
        original = getattr(module, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "addcomb" or modname.startswith("addcomb."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, attr, recording)
        return calls

    return record
