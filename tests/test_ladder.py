"""tools/ladder.py's cross-checks on its smallest rungs: the routes agree, and
a broken route is named and fails the run."""

import importlib.util
import json
import pathlib

import pytest

from addcomb import bohr, bourgain

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def test_the_smallest_rungs_agree(ladder, capsys):
    assert ladder.main(["birkhoff", "--max-exp", "12", "--check-max-exp", "12",
                        "--repeats", "1"]) == 0
    assert ladder.main(["bohr", "--max-exp", "17", "--shares", "0", "0.25",
                        "--repeats", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    checked = rows(out)
    assert [r["oracle"] for r in checked if r["section"] == "birkhoff"] == [True] * 3
    # two shares, each on the picked grid and on the full one
    assert [(r["group"], r["share"]) for r in checked if r["section"] == "bohr"] == [
        (group, share) for group in ("Z_2^16", "Z_2^17", "Z_256 x Z_512")
        for share in (0.0, 0.0, 0.25, 0.25)]
    # the rank-2 rung's ball table is gathered at the default share
    assert [t["held"] < 2 ** 17 for t in checked[-1]["tables"]] == [False, True, True]


def test_a_bohr_table_sieved_one_unit_low_is_named(ladder, capsys, monkeypatch):
    # a gathered table drops the elements exactly at its cap's numerator
    sieve = bohr._sieve
    monkeypatch.setattr(bohr, "_sieve", lambda g, sums, state, at, cap, *rest: sieve(
        g, sums, state, at, cap - 1, *rest))
    assert ladder.main(["bohr", "--max-exp", "17", "--shares", "0", "0.25",
                        "--repeats", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "bohr Z_256 x Z_512: the shares or grids give different mu(B) or report bytes"]


def test_a_broken_route_is_named(ladder, capsys, monkeypatch):
    metric = bourgain.birkhoff_metric

    def off_by_one_unit(system):
        out = metric(system)
        out.rho[1] += 2.0 ** -system.depth
        return out

    monkeypatch.setattr(bourgain, "birkhoff_metric", off_by_one_unit)
    assert ladder.main(["birkhoff", "--max-exp", "10", "--check-max-exp", "10",
                        "--repeats", "1"]) == 1
    assert "birkhoff Z_2^10" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--repeats", "0"], ["--shares", "-1", "0.25"],
                                  ["--shares", "1.5"], ["--max-exp", "9"],
                                  ["--max-exp", "23"], ["--check-max-exp", "9"],
                                  ["--max-exp", "12", "--check-max-exp", "13"], ["knapsack"]])
def test_bad_inputs_exit_2(ladder, argv):
    with pytest.raises(SystemExit) as exit_:
        ladder.main(argv)
    assert exit_.value.code == 2
