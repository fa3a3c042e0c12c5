"""2D mesh interconnect with XY dimension-ordered routing.

An alternative to the crossbar for the scaling studies: cores occupy a
``width x height`` grid (the directory sits at an extra, configurable
tile), messages hop link by link (X first, then Y), and every directed
link serialises one message per ``link_issue_interval`` cycles, so
congestion around the directory tile is modelled.

Delivery between any (src, dst) pair remains FIFO -- XY routing is
deterministic, every message of a pair follows the same path, and each
link is a FIFO queue -- which is the property the coherence protocol
requires.
"""

from __future__ import annotations

import math
from heapq import heappush as _heappush
from typing import Any, Dict, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class Mesh:
    """Dimension-ordered 2D mesh.

    Node ids 0..n_nodes-1 map row-major onto the grid; the node with the
    highest id (the directory, by System convention) is placed at the
    grid's centre tile to match common home-node placement.
    """

    def __init__(self, sim: Simulator, n_nodes: int, stats: StatsRegistry,
                 hop_latency: int = 2, link_issue_interval: int = 1,
                 name: str = "mesh"):
        if n_nodes < 1:
            raise ValueError("mesh needs at least one node")
        if hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")
        if link_issue_interval < 1:
            raise ValueError("link_issue_interval must be >= 1")
        self.sim = sim
        self.name = name
        self.hop_latency = hop_latency
        self.link_issue_interval = link_issue_interval
        self.width = max(1, math.ceil(math.sqrt(n_nodes)))
        self.height = math.ceil(n_nodes / self.width)
        self._endpoints: Dict[int, Any] = {}
        #: accepted but not yet delivered (read by liveness diagnostics)
        self.inflight = 0
        self._coords: Dict[int, Tuple[int, int]] = {}
        self._tiles: Dict[Tuple[int, int], int] = {}
        self._link_free_at: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}
        self._place(n_nodes)

        self.stat_messages = stats.counter(f"{name}.messages")
        self.stat_hops = stats.accumulator(f"{name}.hops")
        self.stat_link_wait = stats.accumulator(f"{name}.link_wait_cycles")

        # Hot-path wiring, mirroring the crossbar: a message pays one
        # scheduling round-trip *per hop*, so ``send``/``_traverse``
        # inline the calendar-bucket append.  ``_traverse_h`` is the
        # bound method each hop reschedules: late-bound through
        # ``self`` so a subclass (the shard-boundary mesh) slots in
        # transparently.
        self._traverse_h = self._traverse

    def _place(self, n_nodes: int) -> None:
        """Row-major placement, with the last node (the directory) swapped
        into the central tile."""
        tiles = [(x, y) for y in range(self.height) for x in range(self.width)]
        tiles = tiles[:n_nodes]
        centre = (self.width // 2, min(self.height // 2, self.height - 1))
        last = n_nodes - 1
        order = list(range(n_nodes))
        if centre in tiles:
            centre_index = tiles.index(centre)
            order[centre_index], order[last] = order[last], order[centre_index]
        for tile, node in zip(tiles, order):
            self._coords[node] = tile
            self._tiles[tile] = node

    # ------------------------------------------------------------- wiring

    def attach(self, node_id: int, endpoint: Any) -> None:
        if node_id not in self._coords:
            raise KeyError(f"node {node_id} has no tile on this mesh")
        if node_id in self._endpoints:
            raise ValueError(f"node id {node_id} already attached")
        self._endpoints[node_id] = endpoint

    def coordinates(self, node_id: int) -> Tuple[int, int]:
        return self._coords[node_id]

    def route(self, src: int, dst: int) -> list:
        """The XY path (list of tiles, inclusive of both ends)."""
        (x, y), (dx, dy) = self._coords[src], self._coords[dst]
        path = [(x, y)]
        while x != dx:
            x += 1 if dx > x else -1
            path.append((x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append((x, y))
        return path

    # ------------------------------------------------------------- sending

    def send(self, src: int, dst: int, msg: Any) -> None:
        if src not in self._endpoints:
            raise KeyError(f"unknown source node {src}")
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination node {dst}")
        path = self.route(src, dst)
        self.stat_messages.value += 1
        self.stat_hops.add(len(path) - 1)
        self.inflight += 1
        if len(path) == 1:
            # Same-tile delivery (src == dst tile): one hop_latency, no
            # link to claim.  Inlined schedule_fast(hop_latency, ...):
            sim = self.sim
            time = sim._now + self.hop_latency
            buckets = sim._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [(self._deliver, (dst, msg))]
                _heappush(sim._times, time)
            else:
                bucket.append((self._deliver, (dst, msg)))
            sim._pending += 1
            return
        self._traverse(path, 0, dst, msg, self.sim._now)

    def _traverse(self, path, index: int, dst: int, msg: Any,
                  arrived_at: int) -> None:
        """Claim the next link (FIFO per link) and hop across it."""
        if index == len(path) - 1:
            self._deliver(dst, msg)
            return
        link = (path[index], path[index + 1])
        free_at = self._link_free_at.get(link, 0)
        depart = arrived_at if arrived_at > free_at else free_at
        self._link_free_at[link] = depart + self.link_issue_interval
        self.stat_link_wait.add(depart - arrived_at)
        arrive = depart + self.hop_latency
        # Inlined schedule_fast_at(arrive, self._traverse_h, ...):
        sim = self.sim
        buckets = sim._buckets
        bucket = buckets.get(arrive)
        entry = (self._traverse_h, (path, index + 1, dst, msg, arrive))
        if bucket is None:
            buckets[arrive] = [entry]
            _heappush(sim._times, arrive)
        else:
            bucket.append(entry)
        sim._pending += 1

    def _deliver(self, dst: int, msg: Any) -> None:
        self.inflight -= 1
        self._endpoints[dst].receive(msg)
