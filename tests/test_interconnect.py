"""Tests for the crossbar interconnect."""

import pytest

from repro.interconnect import Crossbar
from repro.sim.config import InterconnectConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class Sink:
    def __init__(self, sim=None):
        self.received = []
        self.sim = sim

    def receive(self, msg):
        if self.sim is not None:
            self.received.append((self.sim.now, msg))
        else:
            self.received.append(msg)


def make_xbar(link_latency=3, port_issue_interval=1):
    sim = Simulator()
    xbar = Crossbar(sim, InterconnectConfig(link_latency=link_latency,
                                            port_issue_interval=port_issue_interval),
                    StatsRegistry())
    return sim, xbar


def test_message_delivered_after_link_latency():
    sim, xbar = make_xbar(link_latency=5)
    a, b = Sink(sim), Sink(sim)
    xbar.attach(0, a)
    xbar.attach(1, b)
    xbar.send(0, 1, "hello")
    sim.run()
    assert b.received == [(5, "hello")]


def test_duplicate_node_id_rejected():
    _, xbar = make_xbar()
    xbar.attach(0, Sink())
    with pytest.raises(ValueError):
        xbar.attach(0, Sink())


def test_unknown_endpoints_rejected():
    _, xbar = make_xbar()
    xbar.attach(0, Sink())
    with pytest.raises(KeyError):
        xbar.send(0, 9, "x")
    with pytest.raises(KeyError):
        xbar.send(9, 0, "x")


def test_fifo_per_src_dst_pair():
    """Back-to-back sends from one source arrive in order -- the property
    the coherence protocol relies on."""
    sim, xbar = make_xbar(link_latency=4)
    a, b = Sink(sim), Sink(sim)
    xbar.attach(0, a)
    xbar.attach(1, b)
    for i in range(5):
        xbar.send(0, 1, i)
    sim.run()
    assert [m for _, m in b.received] == [0, 1, 2, 3, 4]
    # serialised injection: one per cycle, so arrivals are 1 apart
    times = [t for t, _ in b.received]
    assert times == [4, 5, 6, 7, 8]


def test_port_serialisation_queues_bursts():
    sim, xbar = make_xbar(link_latency=2, port_issue_interval=3)
    a, b = Sink(sim), Sink(sim)
    xbar.attach(0, a)
    xbar.attach(1, b)
    xbar.send(0, 1, "x")
    xbar.send(0, 1, "y")
    sim.run()
    times = [t for t, _ in b.received]
    assert times == [2, 5]  # second injection waited for the port


def test_independent_sources_do_not_queue_each_other():
    sim, xbar = make_xbar(link_latency=2)
    sinks = [Sink(sim) for _ in range(3)]
    for i, s in enumerate(sinks):
        xbar.attach(i, s)
    xbar.send(0, 2, "a")
    xbar.send(1, 2, "b")
    sim.run()
    times = sorted(t for t, _ in sinks[2].received)
    assert times == [2, 2]


def test_message_count_stat():
    sim, xbar = make_xbar()
    stats = xbar._sent  # the counter created at construction
    xbar.attach(0, Sink())
    xbar.attach(1, Sink())
    xbar.send(0, 1, "m")
    sim.run()
    assert stats.value == 1


def test_injection_queue_accumulator_matches_add():
    """``send`` inlines ``Accumulator.add`` for the injection-queue
    delay; its total, count, minimum and maximum must match what
    ``add`` would have recorded (the result fingerprint hashes only the
    total, so nothing else checks the extrema)."""
    sim, xbar = make_xbar(link_latency=2, port_issue_interval=3)
    for node in range(3):
        xbar.attach(node, Sink())
    xbar.send(0, 1, "a")          # waits 0
    xbar.send(0, 1, "b")          # waits 3
    xbar.send(0, 2, "c")          # waits 6
    xbar.send(1, 2, "d")          # waits 0
    sim.run()
    queue = xbar._queue_cycles
    assert (queue.total, queue.count) == (9, 4)
    assert (queue.minimum, queue.maximum) == (0, 6)


def test_self_send_allowed():
    sim, xbar = make_xbar(link_latency=1)
    a = Sink(sim)
    xbar.attach(0, a)
    xbar.send(0, 0, "loop")
    sim.run()
    assert a.received == [(1, "loop")]
