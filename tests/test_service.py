"""The resident experiment service: admission control, dispatch, sockets.

The acceptance bar: a repeated grid submission must be served 100% from
the persistent store with byte-identical stats tables (proved by
``result_fingerprint`` equality); admission control must reject -- with
a usable ``retry_after`` -- rather than queue without bound; many
concurrent clients must stream their own jobs' events without
cross-talk; and a broken or hung point must fail its own job, never
the server.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.harness.parallel import RunSpec, result_fingerprint, simulate_point
from repro.isa.program import Assembler
from repro.service import (
    ExperimentClient,
    ExperimentServer,
    ExperimentService,
    JobQueue,
    RateLimited,
    RateLimitedError,
    ResultStore,
    ServiceError,
    ServicePoint,
    TokenBucket,
)
from repro.workloads.base import Workload
from tests.conftest import small_config


def _workload(name: str = "w", value: int = 1) -> Workload:
    asm = Assembler(f"{name}.t0")
    asm.li(1, 0x1_0000).li(2, value)
    asm.store(2, base=1)
    asm.halt()
    return Workload(name, [asm.build()], {})


def _grid(n: int = 2, prefix: str = "p"):
    return [RunSpec(f"{prefix}{i}", small_config(1),
                    _workload(f"{prefix}w{i}", i + 1), check=False)
            for i in range(n)]


def _broken_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    raise ValueError("intentionally broken service point")


def _hanging_worker(config, programs, initial_memory, fault_plan=None, node_plan=None):
    time.sleep(60)


# ------------------------------------------------------------- token bucket

def test_token_bucket_burst_then_refill():
    bucket = TokenBucket(rate=1.0, burst=2.0)
    assert bucket.try_acquire(now=0.0) == 0.0
    assert bucket.try_acquire(now=0.0) == 0.0
    wait = bucket.try_acquire(now=0.0)
    assert wait == pytest.approx(1.0)           # one token at 1/s
    assert bucket.try_acquire(now=0.5) > 0.0    # still half a token short
    assert bucket.try_acquire(now=1.5) == 0.0   # refilled


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    assert bucket.try_acquire(now=100.0) == 0.0  # long idle: capped at 2
    assert bucket.try_acquire(now=100.0) == 0.0
    assert bucket.try_acquire(now=100.0) > 0.0


def test_token_bucket_validation():
    with pytest.raises(ValueError, match="rate"):
        TokenBucket(rate=0, burst=1)
    with pytest.raises(ValueError, match="burst"):
        TokenBucket(rate=1, burst=0)


# ---------------------------------------------------------------- job queue

def test_job_queue_depth_rejection_costs_no_token():
    clock = [0.0]
    queue = JobQueue(max_depth=1, rate=100.0, burst=1.0,
                     clock=lambda: clock[0])
    queue.submit("a", ["p"])
    with pytest.raises(RateLimited, match="queue full") as info:
        queue.submit("b", ["p"])
    assert info.value.retry_after > 0
    # client b's bucket was never debited: drain the queue and resubmit
    assert queue.next_job(timeout=0) is not None
    queue.submit("b", ["p"])
    assert queue.snapshot()["rejected_depth"] == 1


def test_job_queue_rate_limit_is_per_client():
    clock = [0.0]
    queue = JobQueue(max_depth=10, rate=0.1, burst=1.0,
                     clock=lambda: clock[0])
    queue.submit("chatty", ["p"])
    with pytest.raises(RateLimited, match="chatty") as info:
        queue.submit("chatty", ["p"])
    assert info.value.retry_after == pytest.approx(10.0)
    queue.submit("other", ["p"])                 # unaffected bucket
    assert queue.snapshot()["rejected_rate"] == 1
    clock[0] = 10.0                              # chatty's bucket refilled
    queue.submit("chatty", ["p"])


def test_job_queue_fifo_and_timeout():
    queue = JobQueue(max_depth=10, rate=100.0, burst=100.0)
    first = queue.submit("c", ["p1"])
    second = queue.submit("c", ["p2"])
    assert queue.next_job(timeout=0).job_id == first.job_id
    assert queue.next_job(timeout=0).job_id == second.job_id
    assert queue.next_job(timeout=0.01) is None


# ------------------------------------------------------- embedded dispatch

def _drain(job, timeout=60.0):
    events = []
    while True:
        event = job.events.get(timeout=timeout)
        events.append(event)
        if event["event"] in ("job-done", "job-failed"):
            return events


def test_embedded_service_simulates_then_serves_from_store(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=2, rate=100.0, burst=100.0)
    service.start()
    try:
        points = [ServicePoint.from_spec(s) for s in _grid(2)]
        first = _drain(service.submit("t", points))
        assert first[-1]["stats"] == {
            "points": 2, "from_store": 0, "simulated": 2,
            "deduplicated": 0, "excluded": 0, "errors": 0}
        second = _drain(service.submit("t", points))
        assert second[-1]["stats"]["from_store"] == 2
        assert second[-1]["stats"]["simulated"] == 0
        fps = {e["label"]: e["result_fingerprint"]
               for e in first if e["event"] == "point"}
        assert {e["label"]: e["result_fingerprint"]
                for e in second if e["event"] == "point"} == fps
    finally:
        service.stop()


def test_embedded_service_dedups_within_one_job(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=1, rate=100.0, burst=100.0)
    service.start()
    try:
        spec = _grid(1)[0]
        twin = RunSpec("twin", spec.config, spec.workload, check=False)
        points = [ServicePoint.from_spec(spec), ServicePoint.from_spec(twin)]
        events = _drain(service.submit("t", points))
        stats = events[-1]["stats"]
        assert stats["deduplicated"] == 1
        assert stats["simulated"] + stats["from_store"] == 2
        done = {e["label"] for e in events if e["event"] == "point"}
        assert done == {"p0", "twin"}
    finally:
        service.stop()


def test_embedded_service_broken_point_fails_job_not_server(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                worker=_broken_worker, jobs=1,
                                rate=100.0, burst=100.0)
    service.start()
    try:
        events = _drain(service.submit(
            "t", [ServicePoint.from_spec(s) for s in _grid(1)]))
        point_events = [e for e in events if e["event"] == "point"]
        assert point_events[0]["status"] == "error"
        assert "intentionally broken" in point_events[0]["error"]
        assert events[-1]["event"] == "job-done"    # server survived
        assert events[-1]["stats"]["errors"] == 1
    finally:
        service.stop()


def test_embedded_service_hung_point_is_excluded_not_fatal(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                worker=_hanging_worker, jobs=1,
                                point_timeout=0.2, retries=0,
                                term_grace=0.5, rate=100.0, burst=100.0)
    service.start()
    try:
        events = _drain(service.submit(
            "t", [ServicePoint.from_spec(s) for s in _grid(1)]))
        point_events = [e for e in events if e["event"] == "point"]
        assert point_events[0]["status"] == "excluded"
        assert "timed out" in point_events[0]["reason"]
        assert events[-1]["stats"]["excluded"] == 1
    finally:
        service.stop()


# --------------------------------------------------------- socket transport

@pytest.fixture
def server(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=2, rate=100.0, burst=100.0,
                                max_queue_depth=8)
    srv = ExperimentServer(str(tmp_path / "svc.sock"), service)
    srv.start()
    yield srv
    srv.stop()


def test_socket_roundtrip_and_store_replay(server):
    client = ExperimentClient(server.socket_path, client_id="c1")
    assert client.ping()
    grid = _grid(3)
    first = client.run_grid(grid)
    assert client.last_job_stats["simulated"] == 3
    assert first["p1"].read_word(0x1_0000) == 2

    second = client.run_grid(grid)
    assert client.last_job_stats["from_store"] == 3
    assert client.last_job_stats["simulated"] == 0
    for label in first:
        assert result_fingerprint(second[label]) == \
            result_fingerprint(first[label])

    stats = client.stats()
    assert stats["store"]["records"] == 3
    assert stats["queue"]["accepted"] == 2


def test_socket_results_match_direct_simulation(server):
    client = ExperimentClient(server.socket_path, client_id="c1")
    grid = _grid(2)
    served = client.run_grid(grid)
    for spec in grid:
        direct, _seconds = simulate_point(
            spec.config, spec.workload.programs,
            spec.workload.initial_memory, spec.fault_plan)
        assert result_fingerprint(served[spec.label]) == \
            result_fingerprint(direct)


def test_socket_client_side_validation_runs(server):
    wl = _workload("checked", 7)
    seen = []
    wl.validate = lambda result: seen.append(result.read_word(0x1_0000))
    client = ExperimentClient(server.socket_path, client_id="c1")
    client.run_grid([RunSpec("checked", small_config(1), wl)])
    assert seen == [7]


def test_concurrent_clients_stream_without_crosstalk(server):
    grids = {f"client-{i}": _grid(2, prefix=f"cc{i}-") for i in range(3)}
    results, errors = {}, []

    def one_client(client_id, grid):
        try:
            client = ExperimentClient(server.socket_path,
                                      client_id=client_id)
            results[client_id] = client.run_grid_with_retry(grid)
        except Exception as exc:  # noqa: BLE001 - surfaced via main thread
            errors.append((client_id, exc))

    threads = [threading.Thread(target=one_client, args=(cid, grid))
               for cid, grid in grids.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    for client_id, grid in grids.items():
        assert set(results[client_id]) == {s.label for s in grid}
        for i, spec in enumerate(grid):
            assert results[client_id][spec.label].read_word(0x1_0000) == i + 1


def test_socket_rate_limit_rejects_with_retry_after(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=1, rate=0.1, burst=1.0)
    with ExperimentServer(str(tmp_path / "svc.sock"), service) as srv:
        client = ExperimentClient(srv.socket_path, client_id="limited")
        client.run_grid(_grid(1))
        with pytest.raises(RateLimitedError) as info:
            client.run_grid(_grid(1))
        assert info.value.retry_after > 0


def test_run_grid_with_retry_honours_backpressure(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                jobs=1, rate=5.0, burst=1.0)
    with ExperimentServer(str(tmp_path / "svc.sock"), service) as srv:
        client = ExperimentClient(srv.socket_path, client_id="retrier")
        client.run_grid(_grid(1))                 # burns the single token
        # immediate resubmit is rejected once, then succeeds after backoff
        results = client.run_grid_with_retry(_grid(1), attempts=5)
        assert results["p0"].read_word(0x1_0000) == 1


def test_socket_excluded_point_raises_service_error(tmp_path):
    service = ExperimentService(ResultStore(str(tmp_path / "store")),
                                worker=_hanging_worker, jobs=1,
                                point_timeout=0.2, retries=0,
                                term_grace=0.5, rate=100.0, burst=100.0)
    with ExperimentServer(str(tmp_path / "svc.sock"), service) as srv:
        client = ExperimentClient(srv.socket_path, client_id="c1")
        with pytest.raises(ServiceError, match="not served"):
            client.run_grid(_grid(1))


# --------------------------------------------------------- chaos streaming

def _chaos_spec(label: str = "chaos") -> RunSpec:
    from repro.faults import CRASH, FaultPlan, NodeFault, NodeFaultPlan
    from repro.sim.config import SystemConfig
    from repro.workloads.protocols import gossip

    return RunSpec(label, SystemConfig(n_cores=4), gossip(4), check=False,
                   fault_plan=FaultPlan(seed=2, drop_prob=0.05),
                   node_plan=NodeFaultPlan(
                       faults=(NodeFault(1, CRASH, 300),)))


def test_wire_point_round_trips_node_plan():
    from repro.service.server import decode_wire_point, encode_wire_point

    spec = _chaos_spec()
    point = ServicePoint.from_spec(spec)
    clone = decode_wire_point(encode_wire_point(point))
    assert clone.node_plan == spec.node_plan
    assert clone.fault_plan == spec.fault_plan
    assert clone.fingerprint() == point.fingerprint() == spec.fingerprint()


def test_wire_decode_tolerates_legacy_four_tuple():
    """Pre-chaos clients ship (config, programs, memory, fault_plan)."""
    import base64
    import pickle

    from repro.service.server import decode_wire_point

    spec = _grid(1)[0]
    blob = pickle.dumps((spec.config, spec.workload.programs,
                         spec.workload.initial_memory, spec.fault_plan))
    point = decode_wire_point({
        "label": spec.label, "name": spec.workload.name,
        "blob": base64.b64encode(blob).decode("ascii")})
    assert point.node_plan is None
    assert point.fingerprint() == spec.fingerprint()


def test_chaos_point_streams_fault_counters(server):
    """Satellite: a remote client can observe a chaos sweep's fault and
    recovery counters straight from the event stream, without
    unpickling result blobs."""
    client = ExperimentClient(server.socket_path, client_id="chaos")
    chaos, clean = _chaos_spec(), _grid(1)[0]
    events = []
    results = client.run_grid([chaos, clean], on_event=events.append)

    assert results["chaos"].crashed_core_ids() == [1]
    point_events = {e["label"]: e for e in events if e["event"] == "point"}
    faults = point_events["chaos"]["faults"]
    assert faults["nodefaults.crashes"] == 1
    assert faults["faults.dropped"] >= 1
    assert faults["retries"] >= 1            # dropped requests were retried
    assert "faults" not in point_events["p0"]    # clean event unchanged
    assert client.last_fault_summaries == {"chaos": faults}

    # Replay from the store carries the same summary (it is derived
    # from the stored result, not from the live run).
    events2 = []
    client.run_grid([chaos], on_event=events2.append)
    assert client.last_job_stats["from_store"] == 1
    replayed = [e for e in events2 if e["event"] == "point"][0]
    assert replayed["faults"] == faults


def test_point_events_stream_the_stored_record_bytes(tmp_path):
    """A miss streams the record ``put`` wrote and a hit the record the
    store just verified: both are the on-disk bytes, packed once."""
    import base64
    store = ResultStore(str(tmp_path / "store"))
    service = ExperimentService(store, jobs=1, rate=100.0, burst=100.0)
    service.start()
    try:
        point = ServicePoint.from_spec(_grid(1)[0])
        miss, hit = (
            [e for e in _drain(service.submit("t", [point]))
             if e["event"] == "point"][0]
            for _ in range(2))
    finally:
        service.stop()
    with open(store._path(point.fingerprint()), "rb") as fh:
        on_disk = fh.read()
    assert (miss["source"], hit["source"]) == ("simulated", "store")
    assert base64.b64decode(miss["result"]) == on_disk
    assert base64.b64decode(hit["result"]) == on_disk
