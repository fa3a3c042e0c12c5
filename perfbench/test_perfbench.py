"""Tests of the benchmark itself: every workload at its smallest size.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that the printed metric names and units are exactly those of
``BENCHMARK.json``, and that the correctness gate works: a corrupted
reference fingerprint and an injected validator failure each make
``failed`` nonzero and the command exit 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seconds", "0.5", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _result(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    proc, lines = _bench("--workload", workload, "--seed", "1",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def smoke_references(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("refs") / "references.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "smoke",
         "--record-references", "--references", path],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(path) as fh:
        return json.load(fh)


def test_recorded_references_pass(smoke_references, tmp_path):
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(smoke_references))
    proc, lines = _bench("--workload", "mesh-scale", "--seed", "2",
                         "--references", str(path))
    assert proc.returncode == 0, proc.stdout
    assert " 0 outputs compared" not in lines[0]
    assert _result(lines)["failed"] == 0


@pytest.mark.parametrize("workload,label", [
    ("paper-grid", "locks-tas|base-sc"),
    ("mesh-scale", "16|barrier-stencil|sharded"),
])
def test_corrupted_reference_fails_the_run(smoke_references, tmp_path,
                                           workload, label):
    refs = json.loads(json.dumps(smoke_references))
    entry = refs["workloads"][f"{workload}/smoke"]["any"]
    entry[label][1] = "0" * 16
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    proc, lines = _bench("--workload", workload, "--seed", "1",
                         "--references", str(path))
    assert proc.returncode == 1
    result = _result(lines)
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith(f"FAILED {label}") for line in lines)


def test_injected_validator_failure_fails_the_run(monkeypatch, capsys):
    real_suite = workloads.standard_suite

    def broken_suite(*args, **kwargs):
        suite = real_suite(*args, **kwargs)
        first = next(iter(suite))

        def wrong_answer(result):
            raise AssertionError("injected validator failure")

        suite[first].validate = wrong_answer
        return suite

    monkeypatch.setattr(workloads, "standard_suite", broken_suite)
    code = bench.main(["--workload", "paper-grid", "--seed", "1",
                       "--seconds", "0.1", "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    result = _result(lines)
    assert result["correct"] is False and result["failed"] >= 1
    assert any("injected validator failure" in line for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _bench("--workload", "paper-grid", "--seed", "1",
                         cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not lines or not lines[-1].startswith("{")


def test_vacuous_ordering_check_fails_the_case(monkeypatch, capsys):
    real_check = workloads.check_execution

    def vacuous(*args, **kwargs):
        report = dict(real_check(*args, **kwargs))
        report["ordering_locations_skipped"] = 1
        return report

    monkeypatch.setattr(workloads, "check_execution", vacuous)
    code = bench.main(["--workload", "litmus-fuzz", "--seed", "1",
                       "--seconds", "0.1", "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert _result(lines)["failed"] >= 1
    assert any("ordering check vacuous" in line for line in lines)


def test_each_pass_starts_from_the_parents_memory(tmp_path):
    from tracing import Tracer

    run = workloads.Run(Tracer(enabled=False), {}, str(tmp_path))
    cache = []

    def pass_(run):
        run.attempted += 1
        cache.append("filled")  # in-process state a pass leaves behind
        return len(cache)

    assert run.in_child(pass_, "first") == 1
    assert run.in_child(pass_, "second") == 1
    assert cache == [] and run.attempted == 2 and run.failed == 0

    def broken(run):
        raise RuntimeError("pass broke")

    assert run.in_child(broken, "third") is None
    assert run.failed == 1 and "pass broke" in run.errors[-1]
