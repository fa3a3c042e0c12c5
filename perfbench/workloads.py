"""The benchmark's four workloads, each generated from a seed.

Every workload runs in *passes*.  A pass is a fixed list of operations
(points, litmus cases or service requests) fully determined by the
seed, so every pass of a run does the same work; the runner repeats
passes until the run's time is up and reports medians over them.  Each
pass runs in a process forked for it (:meth:`Run.in_child`) from a
parent that never simulates, so whatever ``repro`` caches in memory
starts cold in every pass, as it does in a fresh grid or fuzz run.

A pass returns a :class:`Pass` with the figures the end-to-end metrics
are built from.  Traced passes also return what the per-layer metrics
need: per-layer host times, the results (whose counters are summed),
and the records for the store/codec and service read-path probes,
which run after the pass's wall clock has stopped.

Everything here calls ``repro``'s public API; nothing under ``src/`` is
patched.  Simulated time is in cycles; every other time is host time.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import pickle
import random
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.nodeplan import node_fault_scenarios
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.harness.experiments import (E14_NODE_MODES, E14_PAUSE_CYCLES,
                                       E14_WINDOW)
from repro.harness.parallel import (DEFAULT_MAX_CYCLES, RunSpec,
                                    point_fingerprint, result_fingerprint)
from repro.harness.runner import six_point_configs
from repro.service.client import ExperimentClient
from repro.service.server import ExperimentServer, ExperimentService
from repro.service.store import ResultStore, pack_record, unpack_record
from repro.sim.config import (ConsistencyModel, InterconnectConfig,
                              SpeculationMode, SystemConfig, Topology)
from repro.sim.sharded import run_sharded
from repro.system import System
from repro.verification.checker import check_execution
from repro.verification.fuzz import (FUZZ_MAX_CYCLES, SKEW_CHOICES,
                                     SWEEP_SPECS, fuzz_config)
from repro.verification.recorder import ExecutionRecorder
from repro.workloads.barriers import stencil
from repro.workloads.base import Workload
from repro.workloads.protocols import gossip, protocol_suite
from repro.workloads.randmix import (compile_litmus_ops, random_litmus_ops,
                                     random_mix)
from repro.workloads.suite import standard_suite

#: The service's per-client token bucket is set far above what one
#: closed-loop client can send, so admission never rejects this load;
#: a rejection would still count as a failed request.
SERVICE_RATE = 1e6
#: Worker processes the service may fork (the host has 2 CPUs).
SERVICE_JOBS = 2
#: Hit requests the service read-path probe sends on a traced pass:
#: enough for a median with ten samples beyond it.  (A 128-core record
#: takes a quarter second to serve, so a p90's hundred would not fit.)
PROBE_HITS = 24
#: The host-speed probe's loop takes about this long on an idle host of
#: the 2-CPU kind the benchmark was written on.  End-to-end timings are
#: reported scaled to it: the host's speed drifts by up to 2x within a
#: minute as other tenants load it, and the probe, run between
#: operations, tracks that drift (see ``Run.tick``).
PROBE_REFERENCE_S = 0.001
#: Probe at most this often, between operations, spending about
#: PROBE_SHARE of the time since the last probe (at least PROBE_REPEAT
#: loops) so that long operations are bracketed by as many loops.
PROBE_EVERY_S = 0.1
PROBE_REPEAT = 3
PROBE_SHARE = 0.02
#: An operation is scaled by the probes taken within this many seconds
#: of it: enough loops to outweigh their own noise, near enough in time
#: to follow the drift.
PROBE_SPAN_S = 1.5


_PROBE_SOURCE = "def f(a, b):\n    c = a + b\n    return [c] * 4\n"


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def host_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes on this host now.

    It mixes what the simulator spends its time on -- compiling code,
    allocating small objects, dict updates, a sort -- without calling
    any of it, so a change to the program cannot change the probe.
    """
    started = time.perf_counter()
    for _ in range(6):
        compile(_PROBE_SOURCE, "<probe>", "exec")
    table: Dict[int, int] = {}
    items = []
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append(_ProbeItem(key, i))
    items.sort(key=lambda item: item.key)
    return time.perf_counter() - started


@dataclass
class Pass:
    """What one pass measured."""

    wall: float = 0.0              #: host seconds of the timed part
    #: host seconds of each operation, by a key stable across passes
    op_seconds: Dict[str, float] = field(default_factory=dict)
    #: System(...) construction seconds inside each operation
    op_build: Dict[str, float] = field(default_factory=dict)
    #: simulated events of the operations that count toward events_per_s
    op_events: Dict[str, int] = field(default_factory=dict)
    #: (start, end) perf_counter of each operation, to scale it by the
    #: host's speed at the time (see Run.factor_between)
    op_span: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: set-up samples taken outside any operation (server starts), and
    #: when each was taken
    setup: List[float] = field(default_factory=list)
    setup_span: List[Tuple[float, float]] = field(default_factory=list)
    #: per-layer host seconds (traced passes only)
    layer_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    layer_calls: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    #: results whose simulated counters feed the per-layer metrics, and
    #: (spec, result, result_fp) to replay through the store and
    #: service; both stay in the pass's process
    results: list = field(default_factory=list)
    records: list = field(default_factory=list)
    #: the simulated counters summed over ``results`` (traced passes)
    counters: Dict[str, float] = field(default_factory=dict)
    started: float = 0.0           #: perf_counter at the timed part's start
    traced: bool = False


class Run:
    """Outcome bookkeeping shared by every pass of one run."""

    def __init__(self, tracer, references: dict, workdir: str):
        self.tracer = tracer
        self.references = references
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.referenced = 0            #: outputs compared to a reference
        self.first_fp: Dict[str, str] = {}
        self.recorded: Dict[str, List[str]] = {}
        #: latency samples in ms, per request class
        self.latency: Dict[str, List[float]] = defaultdict(list)
        #: per-call host seconds of the store / codec / server probes
        self.calls: Dict[str, List[float]] = defaultdict(list)
        #: plain numbers layers report (sharding telemetry, store counters)
        self.extra: Dict[str, float] = defaultdict(float)
        #: the CPUs this process may use (it runs pinned to one of them)
        self.cpus = os.sched_getaffinity(0)
        #: host-speed probe samples, seconds
        self.probes: List[float] = []
        self.probe_times: List[float] = []
        self._next_probe = 0.0
        self._probed = time.perf_counter()
        self.tick()

    def tick(self) -> None:
        """Between operations: time the probe loop when one is due."""
        now = time.perf_counter()
        if now < self._next_probe:
            return
        loops = max(PROBE_REPEAT, int(PROBE_SHARE * (now - self._probed)
                                      / PROBE_REFERENCE_S))
        with self.tracer.span("host.probe"):
            for _ in range(loops):
                self.probes.append(host_probe())
                self.probe_times.append(now)
        self._probed = time.perf_counter()
        self._next_probe = self._probed + PROBE_EVERY_S

    def factor_between(self, start: float, end: float) -> float:
        """How many times slower than the reference the host ran from
        ``start`` to ``end``: the median of the probes taken within
        PROBE_SPAN_S of that span."""
        lo = bisect.bisect_left(self.probe_times, start - PROBE_SPAN_S)
        hi = bisect.bisect_right(self.probe_times, end + PROBE_SPAN_S)
        window = self.probes[lo:hi] or self.probes[-PROBE_REPEAT:]
        return statistics.median(window) / PROBE_REFERENCE_S

    def host_factor(self) -> float:
        """Median slowness over the whole run."""
        return statistics.median(self.probes) / PROBE_REFERENCE_S

    def in_child(self, fn: Callable, label: str):
        """Call ``fn(self)`` in a forked child and return its value.

        Whatever the call leaves in this process's memory -- ``repro``'s
        own caches included -- ends with the child; the run's
        bookkeeping comes back with the value over a pipe.  A child that
        raises or dies counts as one failed operation and gives None.
        """
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                try:
                    payload = pickle.dumps((self.__dict__, fn(self)))
                except BaseException:  # noqa: BLE001 - reported by the parent
                    payload = pickle.dumps(traceback.format_exc())
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(payload)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
        _, status = os.waitpid(pid, 0)
        outcome = (pickle.loads(payload) if payload
                   else f"process ended with wait status {status}")
        if isinstance(outcome, str):
            sys.stderr.write(outcome)
            self.attempted += 1
            self.fail(label, outcome.strip().splitlines()[-1])
            return None
        state, value = outcome
        self.__dict__.update(state)
        return value

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")

    def verify(self, label: str, pfp: str, rfp: str) -> bool:
        """Gate one output: reference fingerprints where the reference
        file has this point, and equality with earlier passes always."""
        ok = True
        self.recorded[label] = [pfp[:16], rfp[:16]]
        ref = self.references.get(label)
        if ref is not None:
            self.referenced += 1
            if pfp[:16] != ref[0]:
                self.fail(label, "generated input differs from the "
                                 "reference input")
                ok = False
            elif rfp[:16] != ref[1]:
                self.fail(label, f"result fingerprint {rfp[:16]} differs "
                                 f"from reference {ref[1]}")
                ok = False
        first = self.first_fp.setdefault(label, rfp)
        if ok and first != rfp:
            self.fail(label, "result differs from an earlier pass")
            ok = False
        return ok


def _timed(pass_: Optional[Pass], tracer, name: str, fn: Callable, *args,
           samples: Optional[List[float]] = None, group: Optional[str] = None,
           **kwargs):
    """Call ``fn`` inside a span, adding its host time to the pass's
    layer (when a pass is given) and to ``samples`` (when given)."""
    with tracer.span(name, group=group):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        seconds = time.perf_counter() - started
    if pass_ is not None:
        pass_.layer_seconds[name] += seconds
        pass_.layer_calls[name] += 1
    if samples is not None:
        samples.append(seconds)
    return value


def _timed_call(run: Run, name: str, group: str, fn: Callable, *args):
    """:func:`_timed`, keeping the call's host time as one sample of
    ``run.calls[name]``."""
    return _timed(None, run.tracer, name, fn, *args, samples=run.calls[name],
                  group=group)


# ----------------------------------------------------------- point runners

def _run_point(run: Run, pass_: Pass, spec: RunSpec, shards: int = 0,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               attach: Optional[Callable] = None) -> Optional[tuple]:
    """Fingerprint, build, run, fingerprint and validate one point.

    ``shards >= 2`` runs it on the sharded engine.  Its set-up happens
    inside its workers, and its time is left out of the end-to-end
    figures: its two workers need both of the host's CPUs, and the time
    other tenants take from the second one moves its wall time by up to
    3x between runs, which no probe on this process can see.  It is
    reported per layer instead.  ``attach``, when given, is called with
    the built serial ``System`` before it runs and returns a check to
    call with the result.  Returns ``(result, result_fp)``, or ``None``
    when the point failed.
    """
    tracer = run.tracer
    label = spec.label + ("|sharded" if shards else "")
    run.attempted += 1
    with tracer.span("point", group=label):
        op_started = time.perf_counter()
        try:
            pfp = _timed(pass_, tracer, "harness.point_fingerprint",
                         point_fingerprint, spec.config, spec.workload,
                         spec.fault_plan, spec.node_plan, shards=shards)
            check = None
            if shards:
                pinned = os.sched_getaffinity(0)
                os.sched_setaffinity(0, run.cpus)  # workers inherit it
                try:
                    result = _timed(pass_, tracer, "sim.sharded.run",
                                    run_sharded, spec.config,
                                    spec.workload.programs,
                                    spec.workload.initial_memory,
                                    shards=shards, max_cycles=max_cycles)
                finally:
                    os.sched_setaffinity(0, pinned)
            else:
                started = time.perf_counter()
                system = _timed(pass_, tracer, "system.build", System,
                                spec.config, spec.workload.programs,
                                spec.workload.initial_memory,
                                fault_plan=spec.fault_plan,
                                node_plan=spec.node_plan)
                build_seconds = time.perf_counter() - started
                if attach is not None:
                    check = attach(system)
                watchdog = (Watchdog(system) if spec.fault_plan is not None
                            or spec.node_plan is not None else None)
                result = _timed(pass_, tracer, "system.run", system.run,
                                max_cycles=max_cycles, watchdog=watchdog)
            rfp = _timed(pass_, tracer, "harness.result_fingerprint",
                         result_fingerprint, result)
            _timed(pass_, tracer, "workloads.check", spec.workload.check,
                   result)
            if check is not None:
                check(result)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            run.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if not shards:
            pass_.op_seconds[label] = time.perf_counter() - op_started
            pass_.op_span[label] = (op_started, time.perf_counter())
            pass_.op_build[label] = build_seconds
    if not run.verify(label, pfp, rfp):
        return None
    if not shards:
        pass_.op_events[label] = result.events
    return result, rfp


# ------------------------------------------------------------- paper-grid

def _registers_agree(seen: Dict[str, list], key: str):
    """Validator: every config of one private-only random_mix program
    must leave the same architectural registers (the program shares no
    data, so its outcome cannot depend on ordering or speculation)."""
    def validate(result) -> None:
        registers = [core.registers for core in result.cores]
        expected = seen.setdefault(key, registers)
        if registers != expected:
            raise AssertionError(
                f"{key}: registers differ across machine configurations")
    return validate


class PaperGrid:
    """The 7 standard-suite kernels on the 8-core crossbar machine, each
    under base SC/TSO/RMO, InvisiFence SC/TSO/RMO (on demand) and
    continuous speculation, plus a seeded random_mix slice whose private
    arrays lie on both sides of the L1 size."""

    name = "paper-grid"

    def __init__(self, seed: int, size: str):
        smoke = size == "smoke"
        base = SystemConfig(n_cores=8)
        configs = six_point_configs(base)
        configs["continuous"] = base.with_speculation(
            SpeculationMode.CONTINUOUS)
        suite = standard_suite(8, 0.25 if smoke else 0.5)
        if smoke:
            suite = dict(list(suite.items())[:2])
            configs = dict(list(configs.items())[:2])
        self.specs: List[RunSpec] = [
            RunSpec(f"{name}|{label}", cfg, workload)
            for name, workload in suite.items()
            for label, cfg in configs.items()]
        # The seeded slice: one random_mix program per private-array size,
        # each under a base and an InvisiFence machine whose L1 is cut to
        # 4 KiB, so that short programs still land on both sides of it:
        # 256 B per thread fits, 16 KiB per thread spills and evicts.
        rng = random.Random(seed)
        self._seen: Dict[str, list] = {}
        instructions = 40 if smoke else 150
        for ws, words in (("fit", 32), ("spill", 2048)):
            program_seed = rng.randrange(2 ** 31)
            mix = random_mix(8, n_instructions=instructions,
                             seed=program_seed, private_words=words,
                             shared_words=0)
            for label in ("base-sc", "if-sc"):
                workload = replace(mix, validate=_registers_agree(
                    self._seen, f"random-mix-{ws}"))
                config = configs.get(label, base)
                config = replace(config, l1=replace(config.l1,
                                                    size_bytes=4096))
                self.specs.append(RunSpec(f"seeded|random-mix-{ws}|{label}",
                                          config, workload))

    def run_pass(self, run: Run, traced: bool) -> Pass:
        pass_ = Pass()
        started = time.perf_counter()
        pass_.started = started
        for spec in self.specs:
            done = _run_point(run, pass_, spec)
            run.tick()
            if done is not None:
                if traced:
                    pass_.results.append(done[0])
                    pass_.records.append((spec, done[0], done[1]))
        pass_.wall = time.perf_counter() - started
        return pass_


# ------------------------------------------------------------- mesh-scale

def _mesh_config(n_cores: int) -> SystemConfig:
    """E15's large machine: 2D mesh, hop latency 4 (the sharded engine's
    lookahead), 8 interleaved directory homes."""
    return replace(SystemConfig(n_cores=n_cores, n_homes=8),
                   interconnect=InterconnectConfig(topology=Topology.MESH,
                                                   mesh_hop_latency=4))


class MeshScale:
    """E15's 64- and 128-core mesh: barrier stencil at both sizes (one
    phase at 128 cores, to keep a pass short) and 64-core gossip, each
    run serially and on the sharded engine with 2 shards.

    The timed passes run the two stencils serially.  Gossip, the
    longest point, and every sharded run (see ``_run_point``) run in
    traced passes and once after an untraced run's timed passes, so they
    are checked on every run and measured per layer; short passes give
    each timed point several samples.  The inputs are fixed programs,
    the same for every seed, in a fixed order, so peak memory is
    comparable between runs."""

    name = "mesh-scale"
    SHARDS = 2

    def __init__(self, seed: int, size: str):
        if size == "smoke":
            self.timed = [RunSpec("16|barrier-stencil", _mesh_config(16),
                                  stencil(16, phases=1, cells_per_thread=2,
                                          compute_cycles=2))]
            self.untimed: List[RunSpec] = []
        else:
            self.timed = [
                RunSpec(f"{n}|barrier-stencil", _mesh_config(n),
                        stencil(n, phases=phases, cells_per_thread=4,
                                compute_cycles=2))
                for n, phases in ((64, 2), (128, 1))]
            self.untimed = [RunSpec("64|gossip", _mesh_config(64),
                                    gossip(64, repeat=1))]

    def _run_serial(self, run: Run, pass_: Pass, specs: List[RunSpec],
                    traced: bool) -> None:
        for spec in specs:
            # Many-core builds leave much garbage; collecting it between
            # points (untimed) keeps one point's collections out of the
            # next point's time.
            gc.collect()
            run.tick()
            done = _run_point(run, pass_, spec)
            if done is not None:
                self._serial_fp[spec.label] = done[1]
                if traced:
                    pass_.results.append(done[0])
                    pass_.records.append((spec, done[0], done[1]))

    _serial_fp: Dict[str, str] = {}

    def run_pass(self, run: Run, traced: bool) -> Pass:
        pass_ = Pass()
        self._serial_fp = {}
        started = time.perf_counter()
        pass_.started = started
        self._run_serial(run, pass_, self.timed, traced)
        pass_.wall = time.perf_counter() - started
        if traced:
            self._run_untimed(run, pass_, traced)
        return pass_

    def finish(self, run: Run) -> None:
        """After an untraced run's timed passes: the untimed points."""
        if not run.extra["sharded.seconds"]:
            self._run_untimed(run, Pass(), False)

    def _run_untimed(self, run: Run, pass_: Pass, traced: bool) -> None:
        self._run_serial(run, pass_, self.untimed, traced)
        if traced:
            run.extra["serial.seconds"] += sum(
                pass_.op_seconds[spec.label] for spec in self.timed
                + self.untimed if spec.label in pass_.op_seconds)
        self._run_sharded(run, pass_, self._serial_fp, traced)

    def _run_sharded(self, run: Run, pass_: Pass, serial_fp: Dict[str, str],
                     traced: bool) -> None:
        for spec in self.timed + self.untimed:
            gc.collect()
            started = time.perf_counter()
            done = _run_point(run, pass_, spec, shards=self.SHARDS)
            if done is None:
                continue
            run.extra["sharded.seconds"] += time.perf_counter() - started
            result, rfp = done
            run.extra["sharded.events"] += result.events
            if traced:
                telemetry = result.sharding
                run.extra["sim.sharded.busy_max_s"] += max(
                    telemetry.get("busy_seconds", [0.0]))
                run.extra["sim.sharded.epochs"] += telemetry["epochs"]
                run.extra["sim.sharded.crossings"] += telemetry["crossings"]
                run.extra["sim.sharded.points"] += 1
                run.extra["sim.sharded.fingerprint_match"] += (
                    rfp == serial_fp.get(spec.label))


# ------------------------------------------------------------ litmus-fuzz

class LitmusFuzz:
    """Seeded random 2-thread litmus programs across SC/TSO/RMO x
    speculation modes x timing skews, each recorded and checked by the
    axiomatic checker -- the fuzzer's inner loop (E11)."""

    name = "litmus-fuzz"

    def __init__(self, seed: int, size: str):
        smoke = size == "smoke"
        rng = random.Random(seed)
        #: (point, the model its execution is checked against)
        self.cases: List[Tuple[RunSpec, ConsistencyModel]] = []
        specs = SWEEP_SPECS[:1] if smoke else SWEEP_SPECS
        # 24 programs, each with one seeded skew pair, so that a seed's
        # mix of short and long programs averages out.
        for prog in range(1 if smoke else 24):
            threads = tuple(tuple(ops) for ops in random_litmus_ops(
                2, 8, seed=rng.randrange(2 ** 31)))
            skews = tuple(rng.choice(SKEW_CHOICES) for _ in range(2))
            for model in ConsistencyModel:
                for spec in specs:
                    programs = compile_litmus_ops(threads, skews=skews)
                    self.cases.append((RunSpec(
                        f"seeded|p{prog}|{model.value}|{spec.value}",
                        fuzz_config(2, model, spec),
                        Workload("litmus", programs)), model))

    def run_pass(self, run: Run, traced: bool) -> Pass:
        pass_ = Pass()
        tracer = run.tracer

        def checked_against(model: ConsistencyModel):
            """Record the execution; after the run, check SWMR and the
            model's axioms, as the fuzzer's ``execute_case`` does."""
            def attach(system: System) -> Callable:
                recorder = ExecutionRecorder.attach(system)

                def check(result) -> None:
                    _timed(pass_, tracer, "workloads.check",
                           system.check_swmr)
                    report = _timed(pass_, tracer,
                                    "verification.check_execution",
                                    check_execution, recorder, model=model)
                    if report["locations_skipped"] or report.get(
                            "ordering_locations_skipped"):
                        raise AssertionError(
                            "duplicate written values made the coherence "
                            "or ordering check vacuous")
                    if traced:
                        run.extra["verification.accesses_recorded"] += \
                            report["accesses_recorded"]
                        run.extra["verification.cases"] += 1
                return check
            return attach

        started = time.perf_counter()
        pass_.started = started
        for spec, model in self.cases:
            run.tick()
            done = _run_point(run, pass_, spec, max_cycles=FUZZ_MAX_CYCLES,
                              attach=checked_against(model))
            if done is not None and traced:
                pass_.results.append(done[0])
                pass_.records.append((spec, done[0], done[1]))
        pass_.wall = time.perf_counter() - started
        return pass_


# ------------------------------------------------------------ service-mix

def _start_server(run: Run, socket_path: str, store_dir: str
                  ) -> Tuple[ExperimentServer, float]:
    """Open the store (its bloom filter is rebuilt over the records it
    holds), start the service and bind the server; returns the server
    and the time that took.  The wait for the first ``ping`` to answer
    is kept apart, in ``run.calls``."""
    with run.tracer.span("service.server.start"):
        started = time.perf_counter()
        service = ExperimentService(ResultStore(store_dir),
                                    jobs=SERVICE_JOBS, rate=SERVICE_RATE,
                                    burst=SERVICE_RATE)
        server = ExperimentServer(socket_path, service)
        server.start()
        seconds = time.perf_counter() - started
    run.calls["service.server.start"].append(seconds)
    client = ExperimentClient(socket_path)
    with run.tracer.span("service.server.first_ping"):
        pinged = time.perf_counter()
        while not client.ping():
            time.sleep(0.0005)
        run.calls["service.server.first_ping"].append(
            time.perf_counter() - pinged)
    return server, seconds


def _collect_service(run: Run, server: ExperimentServer) -> None:
    """Add the service's store and job-queue counters to the run."""
    store = server.service.store.snapshot()
    for key in ("hits", "misses", "bloom_skips", "integrity_failures"):
        run.extra[f"service.store.{key}"] += store[key]
    jobs = server.service.queue.snapshot()
    run.extra["service.jobqueue.rejected"] += (jobs["rejected_rate"]
                                               + jobs["rejected_depth"])


def _request(run: Run, client: ExperimentClient, spec: RunSpec,
             label: str, server: ExperimentServer,
             layer: Optional[Pass] = None):
    """One closed-loop request: submit, stream, verify, validate.

    Returns ``(result, source, seconds)``, or ``None`` when the request
    was rejected, errored, excluded, or returned a wrong answer.  The
    job queue's depth is sampled as each reply event arrives.
    """
    tracer = run.tracer
    sources = []
    queue = server.service.queue

    def on_event(event: dict) -> None:
        sources.append(event.get("source"))
        run.extra["service.jobqueue.max_depth"] = max(
            run.extra["service.jobqueue.max_depth"], queue.depth())

    run.attempted += 1
    with tracer.span("service.request", group=label):
        started = time.perf_counter()
        try:
            with tracer.span("service.client.run_grid"):
                results = client.run_grid([spec], check=False,
                                          on_event=on_event)
            result = results[spec.label]
            _timed(layer, tracer, "workloads.check", spec.workload.check,
                   result)
        except Exception as exc:  # noqa: BLE001 - counted
            run.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - started
    source = next((s for s in sources if s is not None), None)
    return result, source, seconds


class ServiceMix:
    """A researcher's script driving the resident service: one client, a
    closed loop of one-point jobs over the Unix socket.  Three requests
    in four repeat an earlier point (store hits); the fourth is a fresh
    seeded E14-style chaos point under a FaultPlan and a NodeFaultPlan
    (a cold miss, simulated by a forked worker).  The store the service
    opens already holds the records of earlier experiments."""

    name = "service-mix"
    #: Records of earlier experiments in the warm store, so that opening
    #: it (the bloom filter rebuild over its records) is most of a
    #: server start, as in a store a researcher has used for a while.
    EARLIER_RECORDS = 2048

    def __init__(self, seed: int, size: str):
        smoke = size == "smoke"
        self.seed = seed
        self.warm = 3 if smoke else 27
        self.requests = 8 if smoke else 108
        self.starts = 2 if smoke else 8
        self.earlier = 16 if smoke else self.EARLIER_RECORDS
        misses = self.requests // 4
        rng = random.Random(seed)
        config = SystemConfig(n_cores=4)
        protocols = protocol_suite(4)
        self.pool: List[RunSpec] = []
        # Every 27 consecutive points cover each protocol x link plan x
        # node-fault mode once, so seeds change fault timings and victims
        # but not the mix of work.
        links = ("clean", "drop", "jitter")
        for i in range(self.warm + misses):
            plan_seed = rng.randrange(2 ** 30)
            workload = protocols[i % 3]
            link = links[i // 3 % 3]
            mode = E14_NODE_MODES[i // 9 % 3]
            fault_plan = {
                "clean": None,
                "drop": FaultPlan(seed=plan_seed, drop_prob=0.08),
                "jitter": FaultPlan(seed=plan_seed, jitter_prob=0.25,
                                    max_jitter=7),
            }[link]
            node_plan = node_fault_scenarios(
                seed=plan_seed, n_cores=4, window=E14_WINDOW,
                pause_cycles=E14_PAUSE_CYCLES)[mode]
            self.pool.append(RunSpec(
                f"seeded|chaos{i}|{workload.name}|{mode}|{link}", config,
                workload, fault_plan=fault_plan, node_plan=node_plan))
        # The request order: in each block of four, one seeded position
        # is the next fresh point; the others repeat a point already
        # served this pass (warm-up included), chosen uniformly.
        self.order: List[Tuple[str, int]] = []
        fresh = self.warm
        for block in range(misses):
            miss_at = rng.randrange(4)
            for k in range(4):
                if k == miss_at:
                    self.order.append(("miss", fresh))
                    fresh += 1
                else:
                    self.order.append(("hit", rng.randrange(fresh)))
        #: result fingerprint of each warm-up point, by pool index
        self._warm: Dict[int, str] = {}

    def prepare(self, run: Run) -> None:
        """Once per run, before the passes (not timed): fill the warm
        store every pass starts from, in a child process."""
        self._warm_store = os.path.join(run.workdir, "warm-store")
        self._warm = run.in_child(self._warm_up, "warm-up") or {}

    def _warm_up(self, run: Run) -> Dict[int, str]:
        """One grid of fresh points through a server, then the records
        of earlier experiments: copies of those results under seeded
        keys no request asks for."""
        socket_path = os.path.join(run.workdir, "warm.sock")
        server, _ = _start_server(run, socket_path, self._warm_store)
        try:
            with run.tracer.span("service.warmup"):
                results = ExperimentClient(socket_path, "warmup").run_grid(
                    self.pool[:self.warm])
        except Exception as exc:  # noqa: BLE001 - counted
            run.fail("warm-up", f"{type(exc).__name__}: {exc}")
            results = {}
        finally:
            server.stop()
        warm = {}
        for index, spec in enumerate(self.pool[:self.warm]):
            run.attempted += 1
            if spec.label in results:
                rfp = result_fingerprint(results[spec.label])
                if run.verify(spec.label, spec.fingerprint(), rfp):
                    warm[index] = rfp
        store = ResultStore(self._warm_store)
        earlier = list(results.values())
        for i in range(self.earlier if earlier else 0):
            key = hashlib.sha256(
                f"earlier|{self.seed}|{i}".encode()).hexdigest()
            store.put(key, earlier[i % len(earlier)])
        return warm

    def run_pass(self, run: Run, traced: bool) -> Pass:
        tracer = run.tracer
        root = os.path.join(run.workdir, "pass")
        store_dir = os.path.join(root, "store")
        # Records are written by atomic replace, never in place, so a
        # hard-linked copy leaves the warm store as it was.
        shutil.copytree(self._warm_store, store_dir, copy_function=os.link)
        pass_ = Pass()
        served = dict(self._warm)
        servers: List[ExperimentServer] = []
        try:
            # Set-up: servers started against the warm store; the last
            # one serves the loop.  The others are stopped before it
            # starts (together: a stop waits out the accept poll), so
            # only the serving server's threads run while it is timed.
            for k in range(self.starts):
                run.tick()
                socket_path = os.path.join(root, f"s{k}.sock")
                server, seconds = _start_server(run, socket_path, store_dir)
                servers.append(server)
                pass_.setup.append(seconds)
                pass_.setup_span.append((time.perf_counter() - seconds,
                                         time.perf_counter()))
            _stop_all(servers[:-1])
            client = ExperimentClient(socket_path, "researcher")
            started = time.perf_counter()
            pass_.started = started
            for n, (kind, index) in enumerate(self.order):
                spec = self.pool[index]
                label = f"request{n}"
                run.tick()
                done = _request(run, client, spec, label, server,
                                pass_ if traced else None)
                if done is None:
                    continue
                result, source, seconds = done
                expected = "simulated" if kind == "miss" else "store"
                if source != expected:
                    run.fail(label, f"served from {source}, expected "
                                    f"{expected}")
                    continue
                rfp = result_fingerprint(result)
                if kind == "hit":
                    if rfp != served.get(index):
                        run.fail(label, "store hit returned a different "
                                        "result than the miss that made it")
                        continue
                elif not run.verify(spec.label, _timed(
                        pass_, tracer, "harness.point_fingerprint",
                        spec.fingerprint), rfp):
                    continue
                else:
                    served[index] = rfp
                    pass_.op_events[label] = result.events
                    if traced:
                        pass_.results.append(result)
                        pass_.records.append((spec, result, rfp))
                        run.calls["service.miss_round_trip"].append(seconds)
                pass_.op_seconds[label] = seconds
                pass_.op_span[label] = (time.perf_counter() - seconds,
                                        time.perf_counter())
                run.latency[kind].append(seconds * 1e3)
            pass_.wall = time.perf_counter() - started
            if traced:
                _collect_service(run, server)
        finally:
            _stop_all(servers)
            shutil.rmtree(root, ignore_errors=True)
        if traced:
            _inline_reference(run, pass_)
        return pass_


def _stop_all(servers: List[ExperimentServer]) -> None:
    """Stop servers concurrently and wait for every one to finish."""
    stoppers = [threading.Thread(target=server.stop) for server in servers]
    for thread in stoppers:
        thread.start()
    for thread in stoppers:
        thread.join()


def _inline_reference(run: Run, pass_: Pass) -> None:
    """Simulate each miss of a traced pass in this process, as the
    service's worker does, so the miss round trip can be split into
    simulation and the runner/service overhead around it.  The result
    is gated like the miss's own."""
    for spec, _result, _rfp in pass_.records:
        with run.tracer.span("service.inline_reference", group=spec.label):
            done = _run_point(run, pass_, spec)
        if done is not None:
            run.calls["service.inline_simulate"].append(
                pass_.op_seconds[spec.label])


# -------------------------------------------------- store and service probes

def probe_store(run: Run, pass_: Pass) -> Tuple[str, list]:
    """Call the store and codec directly on the records a traced pass
    produced: pack/unpack and put each, then get each back (a verified
    hit).  Returns the filled store's directory and the
    ``(spec, key, result_fp)`` list."""
    store_dir = os.path.join(run.workdir, "probe-store")
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultStore(store_dir)
    keys = []
    for spec, result, rfp in pass_.records:
        key = point_fingerprint(spec.config, spec.workload, spec.fault_plan,
                                spec.node_plan)
        record = _timed_call(run, "service.store.pack_record", spec.label,
                             pack_record, result, key, rfp)
        run.calls["service.store.record_bytes"].append(len(record))
        _, check = _timed_call(run, "service.store.unpack_record",
                               spec.label, unpack_record, record, key)
        if check != rfp:
            run.fail(spec.label, "record codec changed the result")
        _timed_call(run, "service.store.put", spec.label, store.put, key,
                    result)
        keys.append((spec, key, rfp))
    for spec, key, rfp in keys:
        hit = _timed_call(run, "service.store.get", spec.label, store.get,
                          key)
        if hit is None or hit[1] != rfp:
            run.fail(spec.label, "store get did not return the stored "
                                 "result")
    return store_dir, keys


def probe_service(run: Run, pass_: Pass) -> None:
    """Serve a traced pass's records back through the resident service:
    start a server on the probe store, then send closed-loop requests
    for them (store hits), round-robin, until ``PROBE_HITS`` answered.
    Gives the service read path's timings on this workload's records;
    sharded points are skipped (the service runs serial points only)."""
    store_dir, keys = probe_store(run, pass_)
    socket_path = os.path.join(run.workdir, "probe.sock")
    server, _ = _start_server(run, socket_path, store_dir)
    try:
        client = ExperimentClient(socket_path, "probe")
        for n in range(PROBE_HITS if keys else 0):
            spec, _key, rfp = keys[n % len(keys)]
            label = f"{spec.label}#probe{n}"
            done = _request(run, client, spec, label, server)
            if done is None:
                continue
            result, source, seconds = done
            if source != "store" or result_fingerprint(result) != rfp:
                run.fail(label, "probe hit was not the stored result")
                continue
            run.latency["hit"].append(seconds * 1e3)
        _collect_service(run, server)
    finally:
        server.stop()
        shutil.rmtree(store_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, MeshScale, ServiceMix,
                                       LitmusFuzz)}
