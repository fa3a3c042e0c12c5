"""Tests for the 2D mesh interconnect."""

import pytest

from dataclasses import replace

from repro.interconnect.mesh import Mesh
from repro.sim.config import InterconnectConfig, SystemConfig, Topology
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.system import System, run_system
from repro.workloads import locks
from tests.conftest import small_config


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive(self, msg):
        self.received.append((self.sim.now, msg))


def make_mesh(n_nodes, hop_latency=2, link_issue_interval=1):
    sim = Simulator()
    mesh = Mesh(sim, n_nodes, StatsRegistry(), hop_latency=hop_latency,
                link_issue_interval=link_issue_interval)
    sinks = []
    for node in range(n_nodes):
        sink = Sink(sim)
        mesh.attach(node, sink)
        sinks.append(sink)
    return sim, mesh, sinks


class TestGeometry:
    def test_grid_dimensions_cover_nodes(self):
        for n in (1, 2, 3, 4, 5, 8, 9, 16, 17):
            mesh = Mesh(Simulator(), n, StatsRegistry())
            assert mesh.width * mesh.height >= n
            coords = [mesh.coordinates(i) for i in range(n)]
            assert len(set(coords)) == n  # one tile per node

    def test_directory_node_at_centre(self):
        # The highest id (System's directory) sits at the central tile.
        mesh = Mesh(Simulator(), 9, StatsRegistry())  # 3x3
        assert mesh.coordinates(8) == (1, 1)

    def test_route_is_xy(self):
        mesh = Mesh(Simulator(), 16, StatsRegistry())  # 4x4
        src = next(i for i in range(16) if mesh.coordinates(i) == (0, 0))
        dst = next(i for i in range(16) if mesh.coordinates(i) == (2, 2))
        path = mesh.route(src, dst)
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_route_to_self(self):
        mesh = Mesh(Simulator(), 4, StatsRegistry())
        assert len(mesh.route(0, 0)) == 1


class TestDelivery:
    def test_latency_scales_with_hops(self):
        sim, mesh, sinks = make_mesh(9, hop_latency=3)
        corner = next(i for i in range(9) if mesh.coordinates(i) == (0, 0))
        far = next(i for i in range(9) if mesh.coordinates(i) == (2, 2))
        mesh.send(corner, far, "m")
        sim.run()
        t, _ = sinks[far].received[0]
        assert t == 3 * 4  # 4 hops x 3 cycles

    def test_fifo_per_pair(self):
        sim, mesh, sinks = make_mesh(9)
        for i in range(6):
            mesh.send(0, 8, i)
        sim.run()
        assert [m for _, m in sinks[8].received] == list(range(6))

    def test_link_contention_serialises(self):
        sim, mesh, sinks = make_mesh(4, hop_latency=1, link_issue_interval=4)
        a = next(i for i in range(4) if mesh.coordinates(i) == (0, 0))
        b = next(i for i in range(4) if mesh.coordinates(i) == (1, 0))
        mesh.send(a, b, "x")
        mesh.send(a, b, "y")
        sim.run()
        times = [t for t, _ in sinks[b].received]
        assert times[1] - times[0] >= 4

    def test_unknown_nodes_rejected(self):
        sim, mesh, _ = make_mesh(4)
        with pytest.raises(KeyError):
            mesh.send(0, 99, "m")
        with pytest.raises(KeyError):
            mesh.attach(99, Sink(sim))

    def test_double_attach_rejected(self):
        sim, mesh, _ = make_mesh(2)
        with pytest.raises(ValueError):
            mesh.attach(0, Sink(sim))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(Simulator(), 0, StatsRegistry())
        with pytest.raises(ValueError):
            Mesh(Simulator(), 4, StatsRegistry(), hop_latency=0)


class TestSystemOnMesh:
    def _mesh_config(self, n_cores):
        cfg = small_config(n_cores)
        return replace(cfg, interconnect=InterconnectConfig(
            topology=Topology.MESH, mesh_hop_latency=2))

    def test_workload_correct_on_mesh(self):
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        result = run_system(self._mesh_config(4), wl.programs,
                            check_invariants=True)
        wl.check(result)

    def test_mesh_vs_crossbar_both_correct_different_timing(self):
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        mesh_r = run_system(self._mesh_config(4), wl.programs)
        xbar_r = run_system(small_config(4), wl.programs)
        wl.check(mesh_r)
        wl.check(xbar_r)
        assert mesh_r.cycles != xbar_r.cycles  # genuinely different fabric

    def test_speculation_on_mesh(self):
        from repro.sim.config import SpeculationMode
        wl = locks.lock_contention(4, increments=6, think_cycles=5)
        config = self._mesh_config(4).with_speculation(SpeculationMode.ON_DEMAND)
        result = run_system(config, wl.programs, check_invariants=True)
        wl.check(result)


class TestMeshFastpathDeterminism:
    """The fast build is invisible on the mesh too.

    Same proof shape as the crossbar's in test_fastpath_determinism:
    every point run on the reference build (fastpath=False: generic
    core and L1 handlers) must match the fast build's result
    fingerprint, event count and cycle count exactly.
    """

    def _points(self):
        from repro.sim.config import SpeculationMode
        from repro.workloads.protocols import gossip

        def mesh_config(n_cores, n_homes=1):
            cfg = small_config(n_cores)
            return replace(cfg, n_homes=n_homes,
                           interconnect=InterconnectConfig(
                               topology=Topology.MESH, mesh_hop_latency=2))

        lock = locks.lock_contention(4, increments=6, think_cycles=5)
        return [
            ("locks", mesh_config(4), lock),
            ("locks-spec", mesh_config(4).with_speculation(
                SpeculationMode.CONTINUOUS), lock),
            ("gossip", mesh_config(8), gossip(8)),
            ("gossip-multihome", mesh_config(8, n_homes=4), gossip(8)),
        ]

    def _run(self, config, wl, fastpath):
        system = System(config, wl.programs, wl.initial_memory,
                        fastpath=fastpath)
        return system.run()

    def test_fastpath_vs_compat_fingerprints_match(self):
        from repro.harness.parallel import result_fingerprint
        for label, config, wl in self._points():
            fast = self._run(config, wl, fastpath=True)
            slow = self._run(config, wl, fastpath=False)
            assert result_fingerprint(fast) == result_fingerprint(slow), label
            assert fast.events == slow.events, label
            assert fast.cycles == slow.cycles, label

    def test_fast_send_skips_event_allocation(self):
        # The fast engine must not create Event objects for mesh hops:
        # traversal entries land directly in the calendar buckets.
        sim, mesh, sinks = make_mesh(9, hop_latency=2)
        corner = next(i for i in range(9) if mesh.coordinates(i) == (0, 0))
        far = next(i for i in range(9) if mesh.coordinates(i) == (2, 2))
        mesh.send(corner, far, "m")
        assert sim._pending >= 1
        # Every queued entry is a plain (fn, args) tuple, not an Event.
        for bucket in sim._buckets.values():
            for entry in bucket:
                assert type(entry) is tuple
        sim.run()
        assert sinks[far].received
