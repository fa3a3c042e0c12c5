"""Benchmark: what users of the InvisiFence simulator wait for.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Runs one workload (see ``perfbench/README.md``) in passes for
``--seconds`` seconds, checks every output, prints a readable report,
and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each pass runs in a process forked for it, so in-process caches start
cold in every pass.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics, writing the traced passes' spans as Chrome
trace-event JSON under ``.perfbench/``.  The command exits 1 when any
operation failed (a wrong fingerprint, a failed validator, an exception
or an unserved request) and 2 when ``repro``'s sources are missing.

``--record-references`` regenerates the ``--size``'s entries in
``references.json`` -- reference fingerprints for the default and the
held-out seed -- from one pass of every workload at the current code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES = os.path.join(HERE, "references.json")
#: The seed the benchmark was written against, and one held out from
#: that work so a later gain can be checked on unseen inputs.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def _summary(values):
    """(median, q1, q3, n) -- quartiles as statistics.quantiles gives."""
    values = list(values)
    if not values:
        return 0.0, 0.0, 0.0, 0
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def percentile(values, pct):
    """The ``pct`` percentile, or ``None`` when fewer than ten samples
    lie beyond it (too few to place it)."""
    values = sorted(values)
    if len(values) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _line(name, unit, values) -> str:
    median, q1, q3, n = _summary(values)
    return (f"  {name:<38} {_fmt(median):>12} {unit:<6} "
            f"[q1 {_fmt(q1)}, q3 {_fmt(q3)}] n={n}")


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process of the run (KiB on Linux): this
    one or a descendant.  Passes run in forks of this process, which
    hold its pages as well as their own."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ------------------------------------------------------------------ counters

def simulated_counters(results) -> dict:
    """Exact simulated counters summed over a pass's results."""
    totals = defaultdict(int)
    instructions = fused = 0
    for result in results:
        totals["sim.engine.events"] += result.events
        instructions += result.total_instructions()
        fused += result.fused_instructions()
        totals["cpu.core.fused_blocks"] += result.fused_blocks()
        totals["cpu.core.stall.ordering_cycles"] += \
            result.ordering_stall_cycles()
        for name, value in result.stats.snapshot().items():
            parts = name.split(".")
            kind, leaf = parts[0], parts[-1]
            if kind == "core" and len(parts) == 3:
                key = {"busy_cycles": "cpu.core.busy_cycles",
                       "store_forwards": "cpu.storebuffer.forwards"}.get(leaf)
            elif kind == "core" and parts[2:] == ["stall", "memory"]:
                key = "cpu.core.stall.memory_cycles"
            elif kind == "spec" and len(parts) == 3:
                key = f"core.invisifence.{leaf}"
            elif kind == "l1" and len(parts) == 3:
                key = f"coherence.l1.{leaf}"
            elif kind == "dir" and len(parts) == 2:
                key = f"coherence.directory.{leaf}"
            elif kind == "xbar":
                key = {"messages": "interconnect.crossbar.messages",
                       "injection_queue_cycles":
                           "interconnect.crossbar.queue_cycles"}.get(leaf)
            elif kind == "mesh":
                key = f"interconnect.mesh.{leaf}"
            elif kind in ("faults", "nodefaults") and len(parts) == 2:
                key = name
            else:
                key = None
            if key is not None:
                totals[key] += value
            if leaf in ("retries", "nacks_received", "dups_suppressed"):
                totals["faults.recoveries"] += value
    totals["cpu.core.instructions"] = instructions
    totals["cpu.core.fusion_coverage"] = (fused / instructions
                                          if instructions else 0.0)
    episodes = totals["core.invisifence.episodes"]
    totals["core.invisifence.commit_ratio"] = (
        totals["core.invisifence.commits"] / episodes if episodes else 0.0)
    accesses = totals["coherence.l1.hits"] + totals["coherence.l1.misses"]
    totals["coherence.l1.hit_ratio"] = (totals["coherence.l1.hits"] / accesses
                                        if accesses else 0.0)
    return totals


# ------------------------------------------------------------------- metrics

def op_medians(run, passes, attr: str, scaled: bool) -> dict:
    """Per operation, the median over passes of one of its timings.

    Every pass runs the same operations, so taking the median per
    operation before summing keeps a burst of host noise in one pass
    from moving the run's figure.  ``scaled`` divides each timing by the
    host's slowness when that operation ran.
    """
    samples = defaultdict(list)
    for p in passes:
        for key, value in getattr(p, attr).items():
            samples[key].append(
                value / run.factor_between(*p.op_span[key]) if scaled
                else value)
    return {key: statistics.median(values) for key, values in samples.items()}


def end_to_end(run, passes, rss_mb, scaled: bool = True) -> dict:
    """The end-to-end metrics, host times scaled to the reference host
    (``scaled``) or as measured."""
    seconds = op_medians(run, passes, "op_seconds", scaled)
    events = {key: value for p in passes
              for key, value in p.op_events.items()}
    starts = [s / (run.factor_between(*span) if scaled else 1.0)
              for p in passes for s, span in zip(p.setup, p.setup_span)]
    setup = (statistics.median(starts) if starts
             else sum(op_medians(run, passes, "op_build", scaled).values()))
    if not events:  # every operation failed; the run reports failure
        return {**dict.fromkeys(("setup_s", "events_per_s", "ops_per_s"),
                                0.0), "peak_rss_mb": rss_mb}
    return {
        "setup_s": setup,
        "events_per_s": (sum(events.values())
                         / sum(seconds[key] for key in events)),
        "ops_per_s": len(seconds) / sum(seconds.values()),
        "peak_rss_mb": rss_mb,
    }


def tracing_overhead(run, traced, untraced) -> float:
    """Traced over untraced time of the same operations, minus one."""
    with_spans = op_medians(run, traced, "op_seconds", True)
    without = op_medians(run, untraced, "op_seconds", True)
    keys = with_spans.keys() & without.keys()
    return (sum(with_spans[k] for k in keys)
            / sum(without[k] for k in keys) - 1.0)


def per_layer(run, traced, untraced) -> dict:
    """Per-layer metrics from the traced passes (counts per pass)."""
    n = len(traced)

    def layer(name):
        return statistics.median(p.layer_seconds[name] for p in traced)

    def per_pass(key):
        return run.extra[key] / n

    def call_median(name):
        return statistics.median(run.calls[name]) if run.calls[name] else 0.0

    counters = traced[0].counters
    run_s = layer("system.run")
    hits = run.latency["hit"]
    sharded_run = sum(p.layer_seconds["sim.sharded.run"] for p in traced)
    miss_rtt = sum(run.calls["service.miss_round_trip"])
    uncovered = [p.wall - run.tracer.covered_seconds(p.started,
                                                     p.started + p.wall)
                 for p in traced]
    metrics = {
        "system.build_s": layer("system.build"),
        "system.builds": statistics.median(
            p.layer_calls["system.build"] for p in traced),
        "system.run_s": run_s,
        "system.run.events_per_s": (counters["sim.engine.events"] / run_s
                                    if run_s else 0.0),
        "harness.point_fingerprint_s": layer("harness.point_fingerprint"),
        "harness.result_fingerprint_s": layer("harness.result_fingerprint"),
        "workloads.check_s": layer("workloads.check"),
        "verification.check_execution_share": statistics.median(
            p.layer_seconds["verification.check_execution"] / p.wall
            for p in traced),
        "verification.cases": per_pass("verification.cases"),
        "verification.accesses_recorded":
            per_pass("verification.accesses_recorded"),
        "sim.sharded.events_per_s": (
            run.extra["sharded.events"] / run.extra["sharded.seconds"]
            if run.extra["sharded.seconds"] else 0.0),
        "sim.sharded.speedup": (
            run.extra["serial.seconds"] / run.extra["sharded.seconds"]
            if run.extra["sharded.seconds"] else 0.0),
        "sim.sharded.barrier_wait_share": (
            1.0 - run.extra["sim.sharded.busy_max_s"] / sharded_run
            if sharded_run else 0.0),
        "sim.sharded.epochs": per_pass("sim.sharded.epochs"),
        "sim.sharded.crossings": per_pass("sim.sharded.crossings"),
        "sim.sharded.fingerprint_match": (
            run.extra["sim.sharded.fingerprint_match"]
            / run.extra["sim.sharded.points"]
            if run.extra["sim.sharded.points"] else 0.0),
        "service.server.start_s": call_median("service.server.start"),
        "service.server.first_ping_s":
            call_median("service.server.first_ping"),
        "service.hit_p50_ms": percentile(hits, 50) or 0.0,
        "service.runner.overhead_share": (
            1.0 - sum(run.calls["service.inline_simulate"]) / miss_rtt
            if miss_rtt else 0.0),
        "service.store.get_s": call_median("service.store.get"),
        "service.store.put_s": call_median("service.store.put"),
        "service.store.pack_record_s":
            call_median("service.store.pack_record"),
        "service.store.unpack_record_s":
            call_median("service.store.unpack_record"),
        "service.store.record_bytes":
            call_median("service.store.record_bytes"),
        "service.store.hits": per_pass("service.store.hits"),
        "service.store.misses": per_pass("service.store.misses"),
        "service.store.bloom_skips": per_pass("service.store.bloom_skips"),
        "service.store.integrity_failures":
            per_pass("service.store.integrity_failures"),
        "service.jobqueue.rejected": per_pass("service.jobqueue.rejected"),
        "service.jobqueue.max_depth": run.extra["service.jobqueue.max_depth"],
        "trace.uncovered_s": statistics.median(uncovered),
        "trace.overhead": tracing_overhead(run, traced, untraced),
    }
    for name in LAYER_COUNTERS:
        metrics[name] = counters.get(name, 0)
    return metrics


#: Simulated counters reported per layer (summed over one traced pass).
LAYER_COUNTERS = (
    "sim.engine.events",
    "cpu.core.instructions", "cpu.core.fusion_coverage",
    "cpu.core.fused_blocks", "cpu.core.busy_cycles",
    "cpu.core.stall.ordering_cycles", "cpu.core.stall.memory_cycles",
    "cpu.storebuffer.forwards",
    "core.invisifence.episodes", "core.invisifence.commits",
    "core.invisifence.violations", "core.invisifence.commit_ratio",
    "core.invisifence.wasted_instructions",
    "coherence.l1.hits", "coherence.l1.misses", "coherence.l1.hit_ratio",
    "coherence.l1.evictions", "coherence.directory.requests",
    "coherence.directory.requests_queued",
    "coherence.directory.invalidations_sent",
    "interconnect.crossbar.messages", "interconnect.crossbar.queue_cycles",
    "interconnect.mesh.messages", "interconnect.mesh.hops",
    "interconnect.mesh.link_wait_cycles",
    "faults.dropped", "faults.duplicated", "faults.delayed",
    "nodefaults.crashes", "nodefaults.pauses", "faults.recoveries",
)


# ----------------------------------------------------------------- reporting

def pass_figures(p) -> dict:
    """The end-to-end figures of one pass alone (for the spread)."""
    seconds = sum(p.op_seconds.values())
    event_seconds = sum(p.op_seconds[key] for key in p.op_events)
    return {
        "setup_s": p.setup or [sum(p.op_build.values())],
        "events_per_s": [sum(p.op_events.values()) / event_seconds],
        "ops_per_s": [len(p.op_seconds) / seconds],
    }


def print_end_to_end(values, raw, passes, run) -> None:
    """Each metric scaled to the reference host, then as measured, then
    the median, quartiles and count of its per-pass samples (server
    starts, for service-mix's set-up)."""
    from workloads import PROBE_REFERENCE_S

    factor = run.host_factor()
    print(f"end to end, scaled to the reference host (host time x "
          f"{1 / factor:.3f} over the run: probe median "
          f"{statistics.median(run.probes) * 1e3:.4f} ms against "
          f"{PROBE_REFERENCE_S * 1e3:g} ms, n={len(run.probes)})")
    samples = defaultdict(list)
    for p in passes:
        if not p.op_events:
            continue
        for name, figures in pass_figures(p).items():
            samples[name].extend(figures)
    for name, unit in (("setup_s", "s"), ("events_per_s", "1/s"),
                       ("ops_per_s", "1/s")):
        median, q1, q3, n = _summary(samples[name])
        print(f"  {name:<30} {_fmt(values[name]):>12} {unit:<4} "
              f"as measured {_fmt(raw[name])} (per pass: median "
              f"{_fmt(median)}, q1 {_fmt(q1)}, q3 {_fmt(q3)}, n={n})")
    print(f"  {'peak_rss_mb':<30} {_fmt(values['peak_rss_mb']):>12} MB")


def print_workload_figures(name, run, passes, values) -> None:
    """The figures named for this workload, with their sample counts."""
    print(f"  {'error_rate':<30} {run.failed / max(run.attempted, 1):>12.6g}"
          f"      ({run.failed} failed of {run.attempted} attempted)")
    alias = {"service-mix": "requests_per_s", "litmus-fuzz": "checks_per_s"}
    if name in alias and values:
        print(f"  {alias[name]:<30} {_fmt(values['ops_per_s']):>12} 1/s")
    if name == "mesh-scale" and run.extra["sharded.seconds"]:
        rate = run.extra["sharded.events"] / run.extra["sharded.seconds"]
        print(f"  {'sharded_events_per_s':<30} {_fmt(rate):>12} 1/s "
              f" (all passes pooled)")
    classes = dict(run.latency)
    if name != "service-mix":
        classes = {"op": [s * 1e3 for p in passes
                          for s in p.op_seconds.values()]}
    for kind, samples in classes.items():
        for pct in (50, 90):
            value = percentile(samples, pct)
            shown = "too few samples" if value is None else _fmt(value)
            print(f"  {f'{kind}_p{pct}_ms':<30} {shown:>12} ms   "
                  f"n={len(samples)}")


def print_trace_report(run, traced, untraced, trace_path) -> None:
    selfs = run.tracer.self_times()
    total = sum(p.wall for p in traced)
    print(f"  self time per span, over {len(traced)} traced pass(es) "
          f"and their probes:")
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<36} {seconds:10.4f} s")
    uncovered = sum(p.wall - run.tracer.covered_seconds(p.started,
                                                        p.started + p.wall)
                    for p in traced)
    print(f"    {'(no span)':<36} {uncovered:10.4f} s of {total:.4f} s "
          f"traced pass wall")
    overhead = tracing_overhead(run, traced, untraced)
    print(f"  tracing overhead: {100 * overhead:+.2f}% (the same operations' "
          f"host time, traced against untraced passes, scaled to the "
          f"reference host)")
    print(f"  spans: {len(run.tracer.spans)} written to {trace_path}")


# ---------------------------------------------------------------------- main

def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def references_for(path, workload, size, seed) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    entry = data.get("workloads", {}).get(f"{workload}/{size}", {})
    table = dict(entry.get("any", {}))
    table.update(entry.get("seeds", {}).get(str(seed), {}))
    return table


def _one_pass(workload, traced: bool, run):
    """One pass, in its own process (see ``workloads.Run.in_child``).
    A traced pass also replays its records through the store and the
    service, and sums its results' counters; the results and records
    themselves stay in the pass's process."""
    import workloads

    gc.collect()  # every pass starts from the same heap state
    run.tracer.enabled = traced
    record = workload.run_pass(run, traced)
    record.traced = traced
    if traced:
        if workload.name == "service-mix":
            workloads.probe_store(run, record)
        else:
            workloads.probe_service(run, record)
        record.counters = dict(simulated_counters(record.results))
    run.tracer.enabled = False
    record.results, record.records = [], []
    return record


def run_workload(name, seed, seconds, trace, size, references):
    """Run one workload; returns (run, passes, traced, untraced, rss)."""
    from tracing import Tracer
    import workloads

    workdir = os.path.join(".perfbench", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = workloads.Run(Tracer(enabled=False), references, workdir)
    workload = workloads.WORKLOADS[name](seed, size)
    passes = []
    # Run on one CPU, the one the host-speed probe runs on, so the probe
    # sees the contention the work sees (the sharded engine alone gets
    # every CPU back; see workloads._run_point).
    os.sched_setaffinity(0, {min(run.cpus)})
    try:
        if hasattr(workload, "prepare"):
            workload.prepare(run)
        started = time.perf_counter()
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            record = run.in_child(
                lambda run: _one_pass(workload, traced, run),
                f"pass {len(passes)}")
            if record is None:
                break
            passes.append(record)
            if time.perf_counter() - started >= seconds and (
                    not trace or len(passes) >= 2):
                break
        if hasattr(workload, "finish"):
            run.in_child(workload.finish, "finish")
    finally:
        os.sched_setaffinity(0, run.cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    return run, passes, traced, untraced, _peak_rss_mb()


def record_references(path, size) -> int:
    import workloads

    data = {"workloads": {}}
    if os.path.exists(path):  # keep the other sizes' references
        with open(path) as fh:
            data = json.load(fh)
    data.update(default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED)
    for name in workloads.WORKLOADS:
        entry = {"any": {}, "seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            run, *_ = run_workload(name, seed, 0.0, 0, size, {})
            if run.failed:
                print(f"{name} seed {seed}: {run.errors}", file=sys.stderr)
                return 1
            seeded = {k: v for k, v in run.recorded.items()
                      if k.startswith("seeded|")}
            entry["seeds"][str(seed)] = seeded
            entry["any"].update({k: v for k, v in run.recorded.items()
                                 if k not in seeded})
            print(f"{name} seed {seed}: {len(run.recorded)} outputs")
        data["workloads"][f"{name}/{size}"] = entry
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload to its smallest "
                             "shape (the benchmark's own tests use it)")
    parser.add_argument("--references", default=REFERENCES)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: repro sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.record_references:
        return record_references(args.references, args.size)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    references = references_for(args.references, args.workload, args.size,
                                args.seed)
    run, passes, traced, untraced, rss = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.size,
        references)

    print(f"{args.workload} seed={args.seed} size={args.size}: "
          f"{len(passes)} passes ({len(traced)} traced), "
          f"{run.referenced} outputs compared to references")
    if args.trace:
        trace_path = os.path.join(
            ".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        run.tracer.write_chrome_trace(trace_path, args.workload)
        chosen = spec["per_layer"]
        values = (per_layer(run, traced, untraced) if traced
                  else dict.fromkeys((m["name"] for m in chosen), 0.0))
    else:
        values = end_to_end(run, passes, rss)
        chosen = spec["end_to_end"]
        print_end_to_end(values, end_to_end(run, passes, rss, scaled=False),
                         passes, run)
    print_workload_figures(args.workload, run, untraced or passes,
                           None if args.trace else values)
    if args.trace:
        print("per layer:")
        for metric in chosen:
            print(f"  {metric['name']:<38} {_fmt(values[metric['name']]):>12}"
                  f" {metric['unit']}")
        if traced:
            print_trace_report(run, traced, untraced, trace_path)
    for error in run.errors:
        print(f"FAILED {error}")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in chosen},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
