"""Resident experiment server: store-backed, rate-limited, streaming.

Architecture (see docs/SERVICE.md)::

    client --- unix socket, JSON lines ---> ExperimentServer
                                                |  submit
                                                v
                                            JobQueue  (token buckets,
                                                |       bounded depth)
                                                v  dispatcher thread
                                         ExperimentService._process
                                           /                \\
                                  ResultStore hit?    ResilientPointRunner
                                  (bloom -> disk,     (warm worker processes,
                                   verified record)    timeouts/retries/kill)

``ExperimentService`` is the embeddable core -- no sockets -- so tests
and the ``--selftest`` CI gate can drive it in-process.
``ExperimentServer`` adds the local-socket JSON-lines protocol: clients
submit a grid of points and stream per-point completion events as they
happen, each carrying the result (as a verified store record) and its
``result_fingerprint``.

Wire format: one JSON object per line.  Point payloads and results
travel as base64-wrapped binary blobs *inside* the JSON -- simulation
configs and results are Python object graphs, and the socket is a
local, same-user trust domain (a Unix socket with filesystem
permissions), so pickle is acceptable transport; do not expose this
protocol on a network boundary.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.faults.nodeplan import NodeFaultPlan
from repro.faults.plan import FaultPlan
from repro.harness.parallel import (
    ResilientPointRunner,
    RunSpec,
    point_fingerprint,
    simulate_point,
)
from repro.service.jobqueue import Job, JobQueue, RateLimited
from repro.service.store import ResultStore
from repro.sim.config import SystemConfig
from repro.workloads.base import Workload

__all__ = ["ExperimentServer", "ExperimentService", "ServicePoint",
           "decode_wire_point", "encode_wire_point", "fault_summary"]


@dataclass
class ServicePoint:
    """One submitted simulation point, workload-validation-free.

    Clients ship exactly what the worker tier needs -- config, assembled
    programs, initial memory, optional fault plan and node-fault (chaos)
    plan -- plus the workload *name*, which is part of the point
    fingerprint.  ``validate`` closures never cross the wire (they are
    not picklable); answer checking stays client-side, same as the
    in-process scheduler's parent-side validation.
    """

    label: str
    workload_name: str
    config: SystemConfig
    programs: List
    initial_memory: Dict[int, int]
    fault_plan: Optional[FaultPlan] = None
    node_plan: Optional[NodeFaultPlan] = None

    def to_workload(self) -> Workload:
        return Workload(self.workload_name, self.programs,
                        self.initial_memory)

    def to_spec(self) -> RunSpec:
        return RunSpec(self.label, self.config, self.to_workload(),
                       check=False, fault_plan=self.fault_plan,
                       node_plan=self.node_plan)

    def fingerprint(self) -> str:
        return point_fingerprint(self.config, self.to_workload(),
                                 self.fault_plan, self.node_plan)

    @classmethod
    def from_spec(cls, spec: RunSpec) -> "ServicePoint":
        return cls(spec.label, spec.workload.name, spec.config,
                   spec.workload.programs, spec.workload.initial_memory,
                   spec.fault_plan, spec.node_plan)


def encode_wire_point(point: ServicePoint) -> dict:
    blob = pickle.dumps(
        (point.config, point.programs, point.initial_memory,
         point.fault_plan, point.node_plan),
        protocol=pickle.HIGHEST_PROTOCOL)
    return {"label": point.label, "name": point.workload_name,
            "blob": base64.b64encode(blob).decode("ascii")}


def decode_wire_point(obj: dict) -> ServicePoint:
    data = pickle.loads(base64.b64decode(obj["blob"]))
    config, programs, initial_memory, fault_plan = data[:4]
    # Pre-chaos clients ship 4-tuples; tolerate them (no node plan).
    node_plan = data[4] if len(data) > 4 else None
    return ServicePoint(obj["label"], obj["name"], config, programs,
                        initial_memory, fault_plan, node_plan)


#: Fault counters surfaced verbatim in each point event (when present).
_FAULT_COUNTERS = ("faults.dropped", "faults.duplicated", "faults.stalls",
                   "faults.delayed", "faults.nacks_sent",
                   "nodefaults.crashes", "nodefaults.pauses",
                   "nodefaults.resumes", "nodefaults.deferred")
#: Recovery counters summed across components (l1.N.retries, dir.retries...).
_RECOVERY_SUFFIXES = (".retries", ".nacks_received", ".dups_suppressed")


def fault_summary(result) -> Optional[dict]:
    """Chaos observability digest of one result's stats snapshot.

    ``None`` for an unperturbed run (no ``faults.*``/``nodefaults.*``
    keys in the snapshot -- fault-free runs stay byte-identical, so the
    clean event shape is unchanged too).  Otherwise a flat dict of the
    injector and node-fault counters plus the per-component recovery
    totals, so a remote :class:`~repro.service.client.ExperimentClient`
    can watch a chaos sweep's perturbation/recovery behaviour without
    unpickling result blobs.
    """
    snapshot = result.stats.snapshot()
    if not any(name.startswith(("faults.", "nodefaults."))
               for name in snapshot):
        return None
    summary = {name: snapshot[name] for name in _FAULT_COUNTERS
               if name in snapshot}
    for suffix in _RECOVERY_SUFFIXES:
        summary[suffix[1:]] = sum(
            value for name, value in snapshot.items()
            if name.endswith(suffix))
    return summary


class ExperimentService:
    """Embeddable service core: job queue -> store -> resilient runner.

    A single dispatcher thread drains the queue in FIFO order.  For
    each job, every point is first looked up in the persistent store
    (bloom filter, then a verified record read); hits stream back
    immediately with ``source: "store"``.  Misses are deduplicated
    within the job and fanned over the :class:`ResilientPointRunner` --
    the same timeout/retry/kill-escalation tier the resilient sweeps
    use -- and each completed result is persisted before its event is
    emitted, so a result is never observable without being durable.
    """

    def __init__(self, store: ResultStore,
                 worker: Callable = simulate_point,
                 jobs: Optional[int] = None,
                 point_timeout: Optional[float] = None,
                 retries: int = 0,
                 retry_backoff: float = 0.25,
                 term_grace: float = 5.0,
                 max_queue_depth: int = 16,
                 rate: float = 20.0,
                 burst: float = 20.0):
        self.store = store
        self.queue = JobQueue(max_depth=max_queue_depth, rate=rate,
                              burst=burst)
        self._runner = ResilientPointRunner(
            worker=worker, jobs=jobs if jobs and jobs > 0
            else (os.cpu_count() or 1),
            point_timeout=point_timeout, retries=retries,
            retry_backoff=retry_backoff, term_grace=term_grace)
        self._running = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.jobs_done = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self._thread is not None:
            return
        self._running.set()
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="experiment-dispatcher",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the dispatcher, then the runner's worker processes."""
        if self._thread is not None:
            self._running.clear()
            self._thread.join()
            self._thread = None
        self._runner.close()

    # ----------------------------------------------------------- submission

    def submit(self, client_id: str, points: List[ServicePoint]) -> Job:
        """Admit a grid; raises :class:`RateLimited` on backpressure."""
        return self.queue.submit(client_id, points)

    # ----------------------------------------------------------- dispatcher

    def _dispatch_loop(self) -> None:
        while self._running.is_set():
            job = self.queue.next_job(timeout=0.1)
            if job is None:
                continue
            try:
                self._process(job)
            except Exception as exc:  # noqa: BLE001 - job-scoped firewall
                job.events.put({"event": "job-failed", "job": job.job_id,
                                "error": f"{type(exc).__name__}: {exc}"})
            self.jobs_done += 1

    def _point_event(self, point: ServicePoint, source: str,
                     result, result_fp: str, point_fp: str,
                     record: bytes) -> dict:
        event = {"event": "point", "label": point.label, "status": "done",
                 "source": source, "point_fingerprint": point_fp,
                 "result_fingerprint": result_fp,
                 "result": base64.b64encode(record).decode("ascii")}
        faults = fault_summary(result)
        if faults is not None:
            event["faults"] = faults
        return event

    def _process(self, job: Job) -> None:
        stats = {"points": len(job.points), "from_store": 0,
                 "simulated": 0, "deduplicated": 0, "excluded": 0,
                 "errors": 0}
        #: fingerprint -> all points in this job sharing it (intra-job dedup)
        waiting: Dict[str, List[ServicePoint]] = {}
        pending = []
        for point in job.points:
            fp = point.fingerprint()
            cached = self.store.get_record(fp)
            if cached is not None:
                result, rfp, record = cached
                stats["from_store"] += 1
                job.events.put(self._point_event(point, "store", result,
                                                 rfp, fp, record))
                continue
            if fp in waiting:
                stats["deduplicated"] += 1
                waiting[fp].append(point)
                continue
            waiting[fp] = [point]
            pending.append((fp, point.to_spec()))

        def on_result(fp, spec, result, seconds):
            rfp, record = self.store.put_record(fp, result)
            for i, point in enumerate(waiting[fp]):
                stats["simulated" if i == 0 else "from_store"] += 1
                job.events.put(self._point_event(point, "simulated", result,
                                                 rfp, fp, record))

        def on_error(fp, spec, message):
            # Do not raise: one broken point must not sink the job's
            # remaining points (the server stays up either way).
            for point in waiting[fp]:
                stats["errors"] += 1
                job.events.put({"event": "point", "label": point.label,
                                "status": "error", "error": message})

        def on_exclude(fp, spec, reason):
            for point in waiting[fp]:
                stats["excluded"] += 1
                job.events.put({"event": "point", "label": point.label,
                                "status": "excluded", "reason": reason})

        if pending:
            self._runner.run(pending, on_result=on_result,
                             on_error=on_error, on_exclude=on_exclude)
        job.events.put({"event": "job-done", "job": job.job_id,
                        "stats": stats})

    def snapshot(self) -> dict:
        return {"store": self.store.snapshot(),
                "queue": self.queue.snapshot(),
                "jobs_done": self.jobs_done}


class ExperimentServer:
    """JSON-lines Unix-socket front end over an :class:`ExperimentService`.

    Ops: ``{"op": "ping"}`` -> ``pong``; ``{"op": "stats"}`` -> counter
    snapshot; ``{"op": "submit", "client": id, "points": [...]}`` ->
    ``accepted`` (then a stream of ``point`` events and a terminal
    ``job-done``) or ``rejected`` with ``retry_after`` seconds.
    """

    #: ceiling on one job's event stream gap before the connection is
    #: declared wedged (dispatcher death is job-failed, not silence).
    STREAM_TIMEOUT = 600.0

    def __init__(self, socket_path: str, service: ExperimentService):
        self.socket_path = socket_path
        self.service = service
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = threading.Event()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        sock.bind(self.socket_path)
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self._running.set()
        self.service.start()
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               name="experiment-server",
                                               daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        if self._sock is None:
            return
        self._running.clear()
        self._accept_thread.join()
        self._accept_thread = None
        self.service.stop()
        self._sock.close()
        self._sock = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def __enter__(self) -> "ExperimentServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------- connections

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    @staticmethod
    def _send(fh, obj: dict) -> None:
        fh.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
        fh.flush()

    def _handle(self, conn: socket.socket) -> None:
        fh = conn.makefile("rwb")
        try:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                except ValueError:
                    self._send(fh, {"event": "error",
                                    "error": "unparseable request line"})
                    continue
                op = msg.get("op")
                if op == "ping":
                    self._send(fh, {"event": "pong"})
                elif op == "stats":
                    self._send(fh, {"event": "stats",
                                    **self.service.snapshot()})
                elif op == "submit":
                    self._handle_submit(fh, msg)
                else:
                    self._send(fh, {"event": "error",
                                    "error": f"unknown op {op!r}"})
        except (BrokenPipeError, ConnectionResetError, ValueError):
            pass  # client went away mid-stream; drop the connection
        finally:
            try:
                fh.close()
            except OSError:
                pass
            conn.close()

    def _handle_submit(self, fh, msg: dict) -> None:
        client_id = msg.get("client", "anonymous")
        try:
            points = [decode_wire_point(obj) for obj in msg["points"]]
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            self._send(fh, {"event": "error",
                            "error": f"undecodable points: {exc}"})
            return
        try:
            job = self.service.submit(client_id, points)
        except RateLimited as exc:
            self._send(fh, {"event": "rejected", "reason": exc.reason,
                            "retry_after": exc.retry_after})
            return
        self._send(fh, {"event": "accepted", "job": job.job_id,
                        "points": len(points)})
        while True:
            event = job.events.get(timeout=self.STREAM_TIMEOUT)
            self._send(fh, event)
            if event["event"] in ("job-done", "job-failed"):
                return
