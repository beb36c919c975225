"""Tests of the benchmark itself (not part of the program's test suite).

    python -m pytest perfbench/test_perfbench.py -q

Short runs of every workload must print every metric name of
BENCHMARK.json with its unit and end in a well-formed result line; a
wrong recorded digest must count as a failed operation, not crash; and
without the program's sources the benchmark must exit non-zero without
printing a result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys

import pytest

from common import ROOT, SRC, WORK

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted({w["name"] for w in SPEC["workloads"]} | {"serve_history"}))
def test_short_run_prints_every_metric_with_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    body = "\n".join(lines[:-1])
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in body.splitlines()
        ), f"{metric['name']} not printed with its unit"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_profile_digest_is_a_failed_operation():
    import profile_suite

    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())["profile_suite"]
    digests = dict(digests, fannkuch="0" * 64)
    out = io.StringIO()
    result = profile_suite.run(3, 0.1, False, out, digests=digests)
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert "MISMATCH" in out.getvalue()


def test_wrong_service_digest_is_a_failed_operation():
    import serve

    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())["serve"]
    wrong = {key: "0" * 64 for key in digests}
    out = io.StringIO()
    result = serve.run_paced(3, 0.5, False, out, digests=wrong)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "not the recorded digest" in out.getvalue()


def test_exits_nonzero_without_the_program():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run("profile_suite", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_every_per_layer_metric_records_what_it_should_move():
    intent = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    assert set(intent) == {m["name"] for m in SPEC["per_layer"]}
    assert all(entry["how"] and entry["moves"] for entry in intent.values())
