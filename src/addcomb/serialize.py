"""JSON formats for groups, sets, and run artifacts.

Group literal:  {"cycles": [n1, ..., nk]}
Set literal:    {"group": <group literal>, "elements": [[x1..xk], ...]}
                or the cyclic shorthand {"group": ..., "interval": r}
                meaning {-r..r}.

Serialization is canonical: elements sorted by mixed-radix index, keys
sorted, fixed separators. Identical objects serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Any

from .groups import FinAbGroup, _check_number
from .sets import GroupSet


def group_to_json(group: FinAbGroup) -> dict:
    return {"cycles": list(group.invariants)}


def group_from_json(obj: dict) -> FinAbGroup:
    if not isinstance(obj, dict) or not isinstance(obj.get("cycles"), list):
        raise ValueError("group literal must be an object with a 'cycles' list")
    return FinAbGroup(obj["cycles"])


def set_to_json(A: GroupSet) -> dict:
    return {
        "group": group_to_json(A.group),
        "elements": [list(c) for c in A.coords_list()],
    }


def set_from_json(obj: dict) -> GroupSet:
    if not isinstance(obj, dict) or "group" not in obj:
        raise ValueError("set literal must be an object with a 'group'")
    group = group_from_json(obj["group"])
    if "interval" in obj:
        _check_number(obj["interval"], "set literal", "interval", 0, integral=True)
        return GroupSet.interval(group, obj["interval"])
    if not isinstance(obj.get("elements"), list):
        raise ValueError("set literal needs an 'elements' list or an 'interval'")
    coords = [e if isinstance(e, list) else [e] for e in obj["elements"]]
    for c in coords:
        for x, n in zip(c, group.invariants):
            _check_number(x, "set literal", "coordinate", 0, high=n - 1, integral=True)
    return GroupSet.from_coords(group, coords)


def load_set(path: str) -> GroupSet:
    with open(path) as fh:
        return set_from_json(json.load(fh))


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
