"""The fast path is semantically invisible, and the engine matches seed.

Two independent proofs that the hot-path overhaul changed nothing
observable:

* **fastpath determinism** -- every grid point run with
  ``System(fastpath=False)`` (all events routed through the
  Event-allocating slow path) produces the same result fingerprint as
  the default fast path;
* **golden fingerprints** -- the quick E1/E9 grids reproduce, bit for
  bit, the fingerprints measured on the pre-overhaul engine, and the
  quick MEM grid, the two chaos points and a 16-core mesh stencil
  reproduce the fingerprints pinned when they were added (all committed
  in ``tests/golden_fingerprints.json``).

A fingerprint (see :func:`repro.harness.parallel.result_fingerprint`)
hashes the cycle count, the full stats snapshot, every core's registers
and the architectural memory image -- equality means byte-identical
experiment tables.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.harness.bench import default_grids
from repro.harness.experiments import e1_plan, e9_plan
from repro.harness.parallel import result_fingerprint
from repro.system import System

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                            "golden_fingerprints.json")

# A cross-section of both grids, kept small enough for the default test
# pass: spin-heavy E1 points under every consistency model, plus E9
# scaling points at two core counts.
_DETERMINISM_SPECS = e1_plan(n_cores=2, scale=0.2) + \
    e9_plan(core_counts=(2, 4), scale=0.2)


def _chaos_specs():
    """One election + one gossip point under a composed chaos plan.

    Node-fault points disable fusion only on the *targeted* cores, so
    the fastpath/superblock proofs below also cover the mixed case --
    fused survivors running alongside an unfused, faulted victim.
    """
    from repro.faults import CRASH, PAUSE, FaultPlan, NodeFault, NodeFaultPlan
    from repro.harness.parallel import RunSpec
    from repro.sim.config import SystemConfig
    from repro.workloads.protocols import gossip, leader_election

    config = SystemConfig(n_cores=4)
    link = FaultPlan(seed=3, drop_prob=0.05, jitter_prob=0.1, max_jitter=5)
    return [
        RunSpec("chaos-election-crash", config, leader_election(4),
                fault_plan=link,
                node_plan=NodeFaultPlan(faults=(NodeFault(2, CRASH, 400),))),
        RunSpec("chaos-gossip-pause", config, gossip(4),
                fault_plan=link,
                node_plan=NodeFaultPlan(
                    faults=(NodeFault(1, PAUSE, 300, 400),))),
    ]


_CHAOS_SPECS = _chaos_specs()


def _mesh_specs():
    """One 16-core mesh barrier-stencil point: many-core XY routing,
    eight directory homes and barrier spinning (the spin-parking path)
    in a run small enough for the default test pass."""
    from repro.harness.parallel import RunSpec
    from repro.sim.config import InterconnectConfig, SystemConfig, Topology
    from repro.workloads.barriers import stencil

    config = replace(SystemConfig(n_cores=16, n_homes=8),
                     interconnect=InterconnectConfig(
                         topology=Topology.MESH, mesh_hop_latency=4))
    return [RunSpec("mesh16-stencil", config,
                    stencil(16, phases=2, cells_per_thread=4,
                            compute_cycles=2))]


_MESH_SPECS = _mesh_specs()


def _run(spec, fastpath):
    system = System(spec.config, spec.workload.programs,
                    spec.workload.initial_memory, fastpath=fastpath,
                    fault_plan=spec.fault_plan, node_plan=spec.node_plan)
    return system.run()


@pytest.mark.parametrize("spec", _DETERMINISM_SPECS,
                         ids=[s.label for s in _DETERMINISM_SPECS])
def test_fastpath_and_slowpath_fingerprints_match(spec):
    fast = _run(spec, fastpath=True)
    slow = _run(spec, fastpath=False)
    assert result_fingerprint(fast) == result_fingerprint(slow)
    # The event *count* must agree too: the fast path skips Event
    # allocation, never events.
    assert fast.events == slow.events
    assert fast.cycles == slow.cycles


@pytest.mark.parametrize("spec", _DETERMINISM_SPECS,
                         ids=[s.label for s in _DETERMINISM_SPECS])
def test_superblocks_on_off_fingerprints_match(spec):
    """Trace-compiled execution is semantically invisible.

    Superblock fusion batches a span's register work into its head
    event but preserves the event *cadence* via relay entries, so
    cycles, event counts and the full stats fingerprint must be
    byte-identical with fusion disabled.
    """
    fused = _run(spec, fastpath=True)
    plain = System(spec.config.with_superblocks(False),
                   spec.workload.programs,
                   spec.workload.initial_memory).run()
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.events == plain.events
    assert fused.cycles == plain.cycles


@pytest.mark.parametrize("spec", _CHAOS_SPECS,
                         ids=[s.label for s in _CHAOS_SPECS])
def test_chaos_points_fastpath_matches_compat(spec):
    """Node faults are engine-mode invariant: the pause/crash guards
    hook the shared decoded-handler lists, which both dispatch paths
    fetch at dispatch time, so perturbed runs replay identically."""
    fast = _run(spec, fastpath=True)
    slow = _run(spec, fastpath=False)
    assert result_fingerprint(fast) == result_fingerprint(slow)
    assert fast.cycles == slow.cycles


@pytest.mark.parametrize("spec", _CHAOS_SPECS,
                         ids=[s.label for s in _CHAOS_SPECS])
def test_chaos_points_superblocks_on_off_match(spec):
    """Fusion stays byte-invisible under chaos: plan-targeted cores are
    built unfused either way (a mid-superblock fault would otherwise
    settle at a different instruction boundary), and the untargeted
    survivors' fused execution changes nothing observable."""
    fused = _run(spec, fastpath=True)
    plain = System(spec.config.with_superblocks(False),
                   spec.workload.programs, spec.workload.initial_memory,
                   fault_plan=spec.fault_plan,
                   node_plan=spec.node_plan).run()
    assert result_fingerprint(fused) == result_fingerprint(plain)
    assert fused.cycles == plain.cycles


def test_superblock_fusion_engages_on_spin_workloads():
    """The on/off proof above is vacuous if fusion never fires: at
    least the spin-heavy E1 points must retire a meaningful fraction
    of their dynamic instructions inside fused superblocks."""
    spin = [s for s in _DETERMINISM_SPECS if "locks-ticket" in s.label]
    assert spin, "expected locks-ticket points in the determinism grid"
    for spec in spin:
        result = _run(spec, fastpath=True)
        assert result.fusion_coverage() > 0.25, spec.label
        assert result.mean_superblock_length() >= 2.0, spec.label


def _golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


def _pinned_grids():
    """Every grid the golden file pins: the three quick bench grids
    (E1, E9, MEM) plus the chaos points and the mesh stencil above."""
    grids = default_grids(quick=True)
    grids["CHAOS"] = _CHAOS_SPECS
    grids["MESH"] = _MESH_SPECS
    return grids


def _golden_params():
    golden = _golden()
    params = []
    for grid_id, specs in _pinned_grids().items():
        expected = golden["grids"][grid_id]
        for spec in specs:
            params.append(pytest.param(spec, expected[spec.label],
                                       id=f"{grid_id}|{spec.label}"))
    return params


def test_golden_file_covers_current_grids():
    """Renaming points in a pinned grid must regenerate the golden file.

    Every grid is pinned: the file names exactly the grids of
    :func:`_pinned_grids`, each with exactly the committed labels.
    """
    golden = _golden()
    grids = _pinned_grids()
    assert set(golden["grids"]) == set(grids)
    for grid_id, expected in golden["grids"].items():
        assert set(expected) == {s.label for s in grids[grid_id]}


@pytest.mark.parametrize("spec,expected", _golden_params())
def test_engine_reproduces_seed_fingerprints(spec, expected):
    # The default configuration has superblocks enabled, so this run
    # also proves the goldens are byte-unchanged under trace-compiled
    # execution (ISSUE 7 acceptance).
    assert spec.config.superblocks
    result = _run(spec, fastpath=True)
    assert result_fingerprint(result) == expected, (
        f"{spec.label}: stats diverge from the pinned fingerprint; "
        "if the simulated architecture intentionally changed, regenerate "
        "tests/golden_fingerprints.json (see docs/PERF.md)"
    )
