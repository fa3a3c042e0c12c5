"""Resilient sweep execution: timeouts, retries, exclusion, checkpoints.

The acceptance bar: a sweep interrupted mid-run and resumed from its
checkpoint directory must reuse the already-completed points and still
produce tables bit-identical to an uninterrupted run; hung or crashing
points must be retried with backoff and then excluded instead of
sinking the grid; deterministic failures must raise immediately, naming
the offending (config, workload) point.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.faults import FaultPlan
from repro.harness.parallel import (
    ResilientPointRunner,
    RunSpec,
    SweepError,
    SweepScheduler,
    point_fingerprint,
    result_fingerprint,
    simulate_point,
)
from repro.isa.program import Assembler
from repro.service import (
    ExperimentClient,
    ExperimentServer,
    ExperimentService,
    ResultStore,
)
from repro.workloads.base import Workload
from repro.workloads.locks import lock_contention
from repro.workloads.producer_consumer import pingpong
from tests.conftest import small_config

_CRASH_MARKER_ENV = "REPRO_TEST_CRASH_MARKER"


def _workload(name: str = "w", value: int = 1) -> Workload:
    asm = Assembler(f"{name}.t0")
    asm.li(1, 0x1_0000).li(2, value)
    asm.store(2, base=1)
    asm.halt()
    return Workload(name, [asm.build()], {})


def _grid(n: int = 3):
    return [RunSpec(f"p{i}", small_config(1), _workload(f"w{i}", i + 1))
            for i in range(n)]


def _hanging_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    time.sleep(60)


def _crash_once_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    """Dies hard on the first attempt, succeeds on the second (the marker
    file persists across the retry's fresh process)."""
    marker = os.environ[_CRASH_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return simulate_point(config, programs, initial_memory, fault_plan)


def _broken_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    raise ValueError("intentionally broken point")


# ------------------------------------------------------------- fingerprints

def test_runspec_fingerprint_matches_legacy_without_plan():
    config, wl = small_config(1), _workload()
    assert RunSpec("p", config, wl).fingerprint() == \
        point_fingerprint(config, wl)


def test_fault_plan_is_part_of_point_identity():
    config, wl = small_config(1), _workload()
    plan = FaultPlan(drop_first_n=1)
    spec = RunSpec("p", config, wl, fault_plan=plan)
    assert spec.fingerprint() == point_fingerprint(config, wl, plan)
    assert spec.fingerprint() != point_fingerprint(config, wl)
    assert point_fingerprint(config, wl, FaultPlan(drop_first_n=2)) != \
        spec.fingerprint()


def test_fault_injected_point_runs_through_the_scheduler():
    scheduler = SweepScheduler(jobs=1)
    scheduler.add("g", [RunSpec("p", small_config(1), _workload(),
                                fault_plan=FaultPlan(seed=4, dup_prob=0.5))])
    scheduler.run()
    result = scheduler.results_for("g")["p"]
    assert result.stats.snapshot()["faults.duplicated"] >= 0
    assert result.read_word(0x1_0000) == 1


# ------------------------------------------------------ checkpoint / resume

def test_interrupted_sweep_resumes_from_checkpoints(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    grid = _grid(3)

    # Reference: one uninterrupted run, no checkpointing involved.
    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(3))
    reference.run()
    want = {label: result_fingerprint(result)
            for label, result in reference.results_for("g").items()}

    # "Killed" sweep: only part of the grid completed before the kill.
    first = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    first.add("g", grid[:2])
    first.run()
    assert len(os.listdir(ckpt)) == 2

    # Resume in a fresh scheduler (fresh process in real life): the two
    # completed points come from disk, only the third is simulated.
    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(3))
    report = resumed.run()
    assert report.checkpoint_hits == 2
    assert report.unique_points == 1            # only p2 actually simulated
    got = {label: result_fingerprint(result)
           for label, result in resumed.results_for("g").items()}
    assert got == want


def test_truncated_checkpoint_is_ignored_and_resimulated(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    first.add("g", _grid(2))
    first.run()
    victim = sorted(os.listdir(ckpt))[0]
    with open(os.path.join(ckpt, victim), "wb") as fh:
        fh.write(b"\x80truncated-by-a-kill")

    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(2))
    report = resumed.run()
    assert report.checkpoint_hits == 1          # the intact one
    resumed.results_for("g")                    # the other re-simulated fine

    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(2))
    reference.run()
    for label, result in reference.results_for("g").items():
        assert result_fingerprint(resumed.results_for("g")[label]) == \
            result_fingerprint(result)


# -------------------------------------------------- timeouts and exclusion

def test_hung_point_times_out_retries_then_lands_on_skip_list():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=1,
                               retry_backoff=0.05)
    scheduler.add("g", [RunSpec("stuck", small_config(1), _workload())])
    report = scheduler.run()                    # does not raise, does not hang
    assert report.retries == 1
    assert list(report.excluded) == ["stuck"]
    assert "timed out" in report.excluded["stuck"]
    assert "gave up after 2 attempt(s)" in report.excluded["stuck"]
    with pytest.raises(SweepError, match="excluded by the resilience policy"):
        scheduler.results_for("g")


def test_excluded_points_are_not_reattempted_on_rerun():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=0,
                               retry_backoff=0.05)
    scheduler.add("g", [RunSpec("stuck", small_config(1), _workload())])
    scheduler.run()
    assert len(scheduler.excluded) == 1
    started = time.monotonic()
    report = scheduler.run()                    # skip list, not another 0.2s
    assert time.monotonic() - started < 0.15
    assert report.retries == 0


def test_healthy_grid_excludes_nothing_under_resilience_policy():
    resilient = SweepScheduler(jobs=1, point_timeout=30.0, retries=2)
    resilient.add("g", _grid(3))
    report = resilient.run()
    assert not report.excluded and report.retries == 0

    plain = SweepScheduler(jobs=1)
    plain.add("g", _grid(3))
    plain.run()
    for label, result in plain.results_for("g").items():
        assert result_fingerprint(resilient.results_for("g")[label]) == \
            result_fingerprint(result)


# ------------------------------------------------------- crashes and errors

def test_crashed_point_is_retried_and_recovers(tmp_path, monkeypatch):
    marker = str(tmp_path / "crashed-once")
    monkeypatch.setenv(_CRASH_MARKER_ENV, marker)
    scheduler = SweepScheduler(jobs=1, worker=_crash_once_worker,
                               retries=2, retry_backoff=0.05)
    scheduler.add("g", [RunSpec("flaky", small_config(1), _workload())])
    report = scheduler.run()
    assert report.retries == 1
    assert not report.excluded
    assert scheduler.results_for("g")["flaky"].read_word(0x1_0000) == 1


def test_deterministic_error_raises_immediately_naming_the_point():
    scheduler = SweepScheduler(jobs=1, worker=_broken_worker,
                               point_timeout=30.0, retries=5)
    scheduler.add("g", [RunSpec("bad-point", small_config(1),
                                _workload("bad-workload"))])
    started = time.monotonic()
    with pytest.raises(SweepError) as info:
        scheduler.run()
    assert time.monotonic() - started < 5       # no 5-retry backoff dance
    message = str(info.value)
    assert "bad-point" in message
    assert "bad-workload" in message
    assert "intentionally broken point" in message
    assert scheduler._retries_this_run == 0


def test_resilience_option_validation():
    with pytest.raises(ValueError, match="point_timeout"):
        SweepScheduler(point_timeout=0)
    with pytest.raises(ValueError, match="retries"):
        SweepScheduler(retries=-1)
    with pytest.raises(ValueError, match="term_grace"):
        SweepScheduler(term_grace=0)


# --------------------------------------------------- regression: timeouts
#
# Each point's kill deadline must be budgeted from *its own* launch.  The
# pre-fix code computed it from a clock captured before the launch loop,
# so sibling ``proc.start()`` cost was charged against a point's
# point_timeout and late-launched points were killed early.

class _SlowLaunchRunner(ResilientPointRunner):
    """Runner whose every launch takes ~1s (expensive-fork stand-in)."""

    LAUNCH_DELAY = 1.0

    def _launch(self, spec):
        time.sleep(self.LAUNCH_DELAY)
        return super()._launch(spec)


def _slow_start_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    time.sleep(0.35)
    return simulate_point(config, programs, initial_memory, fault_plan)


def test_point_timeout_excludes_sibling_launch_cost():
    # Both launches take ~1s; the worker itself needs ~0.35s against a
    # 1.2s budget.  A fresh per-launch clock gives every point its full
    # budget; the stale pre-loop clock would have killed both (their
    # deadlines expire during/just after their own slow launch).
    runner = _SlowLaunchRunner(worker=_slow_start_worker, jobs=2,
                               point_timeout=1.2, retries=0)
    done, excluded = {}, {}
    runner.run([(spec.fingerprint(), spec) for spec in _grid(2)],
               on_result=lambda fp, spec, result, s: done.__setitem__(
                   fp, result),
               on_error=lambda fp, spec, msg: pytest.fail(msg),
               on_exclude=lambda fp, spec, reason: excluded.__setitem__(
                   spec.label, reason))
    assert excluded == {}
    assert len(done) == 2


# ----------------------------------------- regression: SIGTERM-immune kill
#
# The pre-fix timeout path did proc.terminate() then an *unbounded*
# proc.join(): a worker wedged ignoring SIGTERM hung the sweep forever.
# The fix joins with term_grace, then escalates to SIGKILL.

def _sigterm_immune_worker(config, programs, initial_memory,
                           fault_plan=None, node_plan=None):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)


def test_sigterm_immune_worker_is_kill_escalated():
    scheduler = SweepScheduler(jobs=1, worker=_sigterm_immune_worker,
                               point_timeout=0.3, retries=0,
                               term_grace=0.4)
    scheduler.add("g", [RunSpec("wedged", small_config(1), _workload())])
    started = time.monotonic()
    report = scheduler.run()                    # pre-fix: hangs forever
    assert time.monotonic() - started < 30
    assert list(report.excluded) == ["wedged"]
    assert "timed out" in report.excluded["wedged"]


# ------------------------------------------- regression: report isolation
#
# SweepReport.excluded was built from the scheduler's *cumulative*
# exclusion list, so a second run's report re-reported prior runs'
# exclusions as its own.

def test_report_excluded_is_scoped_to_its_own_run():
    scheduler = SweepScheduler(jobs=1, worker=_hanging_worker,
                               point_timeout=0.2, retries=0)
    scheduler.add("g", [RunSpec("first-stuck", small_config(1),
                                _workload("w-first"))])
    first = scheduler.run()
    assert list(first.excluded) == ["first-stuck"]

    scheduler.add("g", [RunSpec("second-stuck", small_config(1),
                                _workload("w-second"))])
    second = scheduler.run()
    assert list(second.excluded) == ["second-stuck"]   # pre-fix: both
    assert len(scheduler.excluded) == 2                # cumulative skip list

    third = scheduler.run()                            # nothing new hangs
    assert third.excluded == {}


# --------------------------------------- regression: checkpoint validation
#
# _load_checkpoints used to unpickle anything in the directory with no
# integrity or version check.  Checkpoints now use the service store's
# versioned record format: a foreign, tampered, stale-version, or
# legacy raw-pickle file is rejected and the point re-simulated.

def test_foreign_checkpoint_is_rejected_and_resimulated(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    first.add("g", _grid(2))
    first.run()

    fp0, fp1 = (spec.fingerprint() for spec in _grid(2))
    # Pretend an operator synced p0's checkpoint onto p1's key.
    shutil.copyfile(os.path.join(ckpt, f"{fp0}.pkl"),
                    os.path.join(ckpt, f"{fp1}.pkl"))

    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(2))
    report = resumed.run()
    assert report.checkpoint_hits == 1          # only the genuine one
    # pre-fix: p1 silently resumed from p0's result (value 1, not 2)
    assert resumed.results_for("g")["p1"].read_word(0x1_0000) == 2


def test_stale_format_version_checkpoint_is_rejected(tmp_path):
    from repro.service.store import STORE_FORMAT_VERSION
    ckpt = str(tmp_path / "ckpt")
    first = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    first.add("g", _grid(1))
    first.run()

    path = os.path.join(ckpt, f"{_grid(1)[0].fingerprint()}.pkl")
    with open(path, "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    parts = header.split(b"\x00")
    parts[1] = str(STORE_FORMAT_VERSION + 1).encode()
    with open(path, "wb") as fh:
        fh.write(b"\x00".join(parts) + b"\n" + payload)

    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(1))
    report = resumed.run()
    assert report.checkpoint_hits == 0
    assert report.unique_points == 1            # re-simulated
    resumed.results_for("g")


def test_legacy_raw_pickle_checkpoint_is_rejected(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    reference = SweepScheduler(jobs=1)
    reference.add("g", _grid(1))
    reference.run()
    result = reference.results_for("g")["p0"]

    # A checkpoint written by the pre-record-format code: bare pickle.
    os.makedirs(ckpt)
    fp = _grid(1)[0].fingerprint()
    with open(os.path.join(ckpt, f"{fp}.pkl"), "wb") as fh:
        pickle.dump(result, fh)

    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(1))
    report = resumed.run()
    assert report.checkpoint_hits == 0          # no blind unpickling
    assert result_fingerprint(resumed.results_for("g")["p0"]) == \
        result_fingerprint(result)


def test_tampered_checkpoint_fingerprint_fails_integrity(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    first.add("g", _grid(1))
    first.run()

    path = os.path.join(ckpt, f"{_grid(1)[0].fingerprint()}.pkl")
    with open(path, "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    parts = header.split(b"\x00")
    parts[3] = b"0" * 64                        # lie about the result
    with open(path, "wb") as fh:
        fh.write(b"\x00".join(parts) + b"\n" + payload)

    resumed = SweepScheduler(jobs=1, checkpoint_dir=ckpt)
    resumed.add("g", _grid(1))
    assert resumed.run().checkpoint_hits == 0
    resumed.results_for("g")


# ------------------------------------------------------- worker lifecycle
#
# Workers persist across points: one is forked on the first dispatch
# that finds none idle, reused after an "ok" reply, and discarded after
# an "err" reply, a crash or a timeout.

#: Address whose initial value tells ``_pid_worker`` what to do.
_MODE_ADDR = 0x2_0000
_OK, _RAISE, _HANG, _EXIT = range(4)


def _pid_worker(config, programs, initial_memory, fault_plan=None,
                node_plan=None):
    mode = initial_memory.get(_MODE_ADDR, _OK)
    if mode == _RAISE:
        raise ValueError("intentionally broken point")
    if mode == _HANG:
        time.sleep(60)
    if mode == _EXIT:
        os._exit(3)
    return os.getpid(), 0.0


def _pid_simulate_worker(config, programs, initial_memory, fault_plan=None,
                         node_plan=None):
    result, seconds = simulate_point(config, programs, initial_memory,
                                     fault_plan, node_plan)
    return (result, os.getpid()), seconds


def _mode_spec(label: str, mode: int = _OK) -> RunSpec:
    return RunSpec(label, small_config(1),
                   Workload(label, _workload().programs, {_MODE_ADDR: mode}))


def _run_in_order(runner, specs):
    """Label -> the worker's payload, or the outcome's kind ("error" or
    "excluded"), for points dispatched one after another."""
    outcomes = {}
    runner.run([(spec.label, spec) for spec in specs],
               on_result=lambda key, spec, result, s: outcomes.__setitem__(
                   key, result),
               on_error=lambda key, spec, msg: outcomes.__setitem__(
                   key, "error"),
               on_exclude=lambda key, spec, reason: outcomes.__setitem__(
                   key, "excluded"))
    return outcomes


def test_successive_points_reuse_one_worker():
    runner = ResilientPointRunner(worker=_pid_worker, jobs=1)
    try:
        first = _run_in_order(runner, [_mode_spec("a"), _mode_spec("b")])
        again = _run_in_order(runner, [_mode_spec("c")])
    finally:
        runner.close()
    assert first["a"] == first["b"] == again["c"] != os.getpid()


@pytest.mark.parametrize("mode, outcome", [(_RAISE, "error"),
                                           (_HANG, "excluded"),
                                           (_EXIT, "excluded")],
                         ids=["err-reply", "timeout", "os-exit"])
def test_failed_point_discards_its_worker(mode, outcome):
    runner = ResilientPointRunner(worker=_pid_worker, jobs=1,
                                  point_timeout=2.0, retries=0,
                                  term_grace=0.5)
    try:
        got = _run_in_order(runner, [_mode_spec("before"),
                                     _mode_spec("bad", mode),
                                     _mode_spec("after")])
        assert got["bad"] == outcome
        assert got["before"] != got["after"]
        assert [p.pid for p in multiprocessing.active_children()] == \
            [got["after"]]
    finally:
        runner.close()


def test_reused_worker_matches_fresh_process_results():
    a = RunSpec("a", small_config(2), pingpong(n_pairs=1, rounds=4),
                fault_plan=FaultPlan(seed=7, jitter_prob=0.25, max_jitter=5))
    b = RunSpec("b", small_config(2), lock_contention(2, increments=6))
    fresh = {}
    for spec in (a, b):
        runner = ResilientPointRunner(worker=_pid_simulate_worker, jobs=1)
        try:
            (result, _pid), = _run_in_order(runner, [spec]).values()
        finally:
            runner.close()
        fresh[spec.label] = result_fingerprint(result)

    runner = ResilientPointRunner(worker=_pid_simulate_worker, jobs=1)
    try:
        reused = _run_in_order(runner, [a, b, RunSpec("a2", a.config,
                                                      a.workload,
                                                      fault_plan=a.fault_plan)])
    finally:
        runner.close()
    assert len({pid for _result, pid in reused.values()}) == 1
    assert {label: result_fingerprint(result)
            for label, (result, _pid) in reused.items()} == \
        {"a": fresh["a"], "b": fresh["b"], "a2": fresh["a"]}


def test_no_worker_outlives_a_resilient_sweep():
    scheduler = SweepScheduler(jobs=2, retries=1)
    scheduler.add("g", _grid(3))
    scheduler.run()
    assert multiprocessing.active_children() == []
    scheduler.results_for("g")


def test_no_worker_outlives_server_stop(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=2, rate=100.0, burst=100.0)
    server = ExperimentServer(str(tmp_path / "svc.sock"), service)
    server.start()
    try:
        ExperimentClient(server.socket_path).run_grid(_grid(2))
        assert multiprocessing.active_children() != []  # kept warm
    finally:
        server.stop()
    assert multiprocessing.active_children() == []
    server.stop()                                   # idempotent


_UNSTOPPED_SERVICE = """
import sys
from repro.isa.program import Assembler
from repro.service import ExperimentService, ResultStore, ServicePoint
from repro.sim.config import SystemConfig
from repro.workloads.base import Workload

asm = Assembler("w.t0")
asm.li(1, 0x1_0000).li(2, 5)
asm.store(2, base=1)
asm.halt()
point = ServicePoint("p", "w", SystemConfig(n_cores=1), [asm.build()], {})
service = ExperimentService(ResultStore(sys.argv[1]), jobs=1)
service.start()
job = service.submit("t", [point])
while True:
    event = job.events.get(timeout=60)
    if event["event"] == "job-done":
        print(event["stats"]["simulated"])
        break
# no service.stop(): interpreter exit must still finish
"""


def test_unstopped_service_does_not_hang_interpreter_exit(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _UNSTOPPED_SERVICE, str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
