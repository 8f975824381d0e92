"""Self-test of the benchmark harness on the tiny Z_256 workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, group):
    res = _result(trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[group]}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_traced_run_restores_the_library():
    import addcomb.pipeline
    import addcomb.sets
    import addcomb.verify

    before = (addcomb.sets.sumset, addcomb.pipeline.sumset, addcomb.verify.CRITERIA)
    res = _result(1)
    assert res["metrics"]["bourgain.birkhoff_metric.calls"]["value"] == 1
    assert res["metrics"]["sets.sumset.direct.calls"]["value"] > 0
    assert res["metrics"]["trace.absent"]["value"] == 0
    assert (addcomb.sets.sumset, addcomb.pipeline.sumset, addcomb.verify.CRITERIA) == before


def test_wrong_expected_digest_is_exactly_one_failed_operation():
    run.import_library()
    instances = run.set_up("tiny", 0)
    digests = json.loads((BENCH / "digests.json").read_text())
    digests["tiny/Z256 interval r=2"] = "0" * 64
    acct = run.Accounting(digests)
    run.run_pass(instances, acct)
    assert (acct.attempted, acct.failed, acct.correct) == (2, 1, False)


def test_removed_function_is_recorded_absent(monkeypatch):
    run.import_library()
    import addcomb.pipeline
    import tracer

    monkeypatch.delattr(addcomb.pipeline, "find_l")
    t = tracer.Tracer().install()
    try:
        assert "pipeline.run_freiman" in t.traced
        assert "pipeline.find_l" not in t.traced
    finally:
        t.uninstall()


def test_failed_work_hook_is_counted_absent(monkeypatch):
    import tracer

    def changed_signature(args, kwargs, result):
        raise TypeError("transform() result has no .values")

    monkeypatch.setitem(tracer.WORK_COUNTS, "fourier.transform", changed_signature)
    res = _result(1)
    assert res["metrics"]["fourier.transform.calls"]["value"] > 0
    assert res["metrics"]["trace.absent"]["value"] == 1


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
