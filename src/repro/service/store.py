"""Persistent, content-addressed result store for simulation points.

This is the disk tier behind the resident experiment service (and the
record format behind ``SweepScheduler`` checkpoints): every completed
``(config, workload, fault_plan)`` point is stored under its
``point_fingerprint`` and can be served back to any later client --
same process, fresh process, or a different machine sharing the
directory -- without burning simulator cycles.

Guarantees:

* **Atomic writes.** Records land via write-to-temp + ``os.replace``,
  so a reader never sees a partial record and a kill mid-write leaves
  only a stale ``.tmp`` file, never a corrupt visible one.
* **Versioned, self-verifying records.**  Each record carries a format
  version, the owning point fingerprint, and the payload's
  ``result_fingerprint``; :func:`unpack_record` recomputes the latter
  over the unpickled payload, so a truncated, tampered, foreign, or
  cross-version record raises :class:`RecordError` instead of silently
  serving wrong data.  Callers re-simulate on any failure.
* **Bloom-filtered misses.**  A :class:`~repro.service.bloom.BloomFilter`
  warmed from the directory at open sits in front of every lookup, so a
  cold miss costs a few in-memory bit tests instead of a failing
  ``stat`` -- the common case for a service fielding novel points.

Layout: ``<root>/<fp[:2]>/<fp>.res`` -- two-hex-digit sharding keeps
directory fan-out bounded at 256 even with millions of records.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from typing import Dict, Optional, Tuple

from repro.harness.parallel import result_fingerprint
from repro.service.bloom import BloomFilter
from repro.system import SystemResult

__all__ = ["RecordError", "ResultStore", "STORE_FORMAT_VERSION",
           "pack_record", "unpack_record"]

STORE_MAGIC = b"repro-result"
STORE_FORMAT_VERSION = 1
RECORD_SUFFIX = ".res"


class RecordError(ValueError):
    """A persisted record failed its format, version or integrity check."""


def pack_record(result: SystemResult, point_fp: str = "",
                result_fp: Optional[str] = None) -> bytes:
    """Serialize one result as a self-verifying versioned record.

    Header line: ``magic \\x00 version \\x00 point_fp \\x00 result_fp``,
    newline, then the pickled :class:`SystemResult` payload.  The point
    fingerprint may be empty when the record is not bound to a specific
    point (e.g. ad-hoc transfers); bound records let the reader reject a
    record that was copied or renamed onto the wrong key.
    """
    rfp = result_fp if result_fp is not None else result_fingerprint(result)
    header = b"\x00".join((STORE_MAGIC, str(STORE_FORMAT_VERSION).encode(),
                           point_fp.encode(), rfp.encode()))
    return header + b"\n" + pickle.dumps(result,
                                         protocol=pickle.HIGHEST_PROTOCOL)


def unpack_record(data: bytes, expected_point: Optional[str] = None
                  ) -> Tuple[SystemResult, str]:
    """Parse and fully verify a record; returns ``(result, result_fp)``.

    Raises :class:`RecordError` on bad magic (including pre-versioned
    raw pickles), a format-version mismatch, a record bound to a point
    other than ``expected_point``, an unreadable payload, or a payload
    whose recomputed ``result_fingerprint`` differs from the stored one.
    """
    header, sep, payload = data.partition(b"\n")
    if not sep:
        raise RecordError("truncated record: missing header terminator")
    parts = header.split(b"\x00")
    if len(parts) != 4 or parts[0] != STORE_MAGIC:
        raise RecordError("not a repro result record (bad magic)")
    try:
        version = int(parts[1])
    except ValueError:
        raise RecordError("unreadable format version") from None
    if version != STORE_FORMAT_VERSION:
        raise RecordError(f"record format version {version}, "
                          f"this code reads {STORE_FORMAT_VERSION}")
    point_fp = parts[2].decode()
    stored_rfp = parts[3].decode()
    if expected_point is not None and point_fp and point_fp != expected_point:
        raise RecordError(
            f"record belongs to point {point_fp[:12]}..., "
            f"expected {expected_point[:12]}...")
    try:
        result = pickle.loads(payload)
    except Exception as exc:
        raise RecordError(f"unreadable record payload: {exc}") from exc
    actual_rfp = result_fingerprint(result)
    if actual_rfp != stored_rfp:
        raise RecordError("integrity check failed: stored result "
                          "fingerprint does not match the payload")
    return result, actual_rfp


class ResultStore:
    """On-disk result cache keyed by point fingerprint.

    Thread-safe for the service's usage pattern (one writer tier, many
    reader connections): counter updates take a lock, filesystem
    operations rely on the atomic-replace protocol.
    """

    def __init__(self, root: str, bloom_capacity: int = 1 << 17,
                 bloom_error_rate: float = 0.001):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._bloom = BloomFilter(bloom_capacity, bloom_error_rate)
        self._lock = threading.Lock()
        self._tmp_ids = itertools.count()
        self._count = 0
        self.hits = 0
        self.misses = 0
        #: misses answered by the bloom filter alone (no stat/read)
        self.bloom_skips = 0
        self.integrity_failures = 0
        for shard in sorted(os.listdir(root)):
            shard_dir = os.path.join(root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(RECORD_SUFFIX):
                    self._bloom.add(name[:-len(RECORD_SUFFIX)])
                    self._count += 1

    def _path(self, point_fp: str) -> str:
        return os.path.join(self.root, point_fp[:2],
                            point_fp + RECORD_SUFFIX)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, point_fp: str) -> bool:
        return point_fp in self._bloom and os.path.exists(self._path(point_fp))

    def get(self, point_fp: str) -> Optional[Tuple[SystemResult, str]]:
        """``(result, result_fp)`` on a verified hit, else ``None``.

        Never raises on a bad record: integrity failures are counted,
        the offending file is evicted, and the caller re-simulates.
        """
        hit = self.get_record(point_fp)
        return None if hit is None else hit[:2]

    def get_record(self, point_fp: str
                   ) -> Optional[Tuple[SystemResult, str, bytes]]:
        """:meth:`get` plus the record bytes it just verified, so a
        caller can forward the record without packing it again."""
        if point_fp not in self._bloom:
            with self._lock:
                self.bloom_skips += 1
                self.misses += 1
            return None
        try:
            with open(self._path(point_fp), "rb") as fh:
                data = fh.read()
        except OSError:  # bloom false positive (or a concurrent eviction)
            with self._lock:
                self.misses += 1
            return None
        try:
            result, rfp = unpack_record(data, expected_point=point_fp)
        except RecordError:
            with self._lock:
                self.integrity_failures += 1
                self.misses += 1
            self._evict(point_fp)
            return None
        with self._lock:
            self.hits += 1
        return result, rfp, data

    def put(self, point_fp: str, result: SystemResult) -> str:
        """Persist one result atomically; returns its result fingerprint."""
        return self.put_record(point_fp, result)[0]

    def put_record(self, point_fp: str, result: SystemResult
                   ) -> Tuple[str, bytes]:
        """:meth:`put` that also returns the record bytes it wrote."""
        rfp = result_fingerprint(result)
        data = pack_record(result, point_fp=point_fp, result_fp=rfp)
        path = self._path(point_fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fresh = not os.path.exists(path)
        tmp = f"{path}.tmp.{os.getpid()}.{next(self._tmp_ids)}"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        with self._lock:
            self._bloom.add(point_fp)
            if fresh:
                self._count += 1
        return rfp, data

    def _evict(self, point_fp: str) -> None:
        try:
            os.unlink(self._path(point_fp))
        except OSError:
            return
        with self._lock:
            self._count = max(0, self._count - 1)

    def snapshot(self) -> Dict[str, float]:
        """Counters for the service's ``stats`` op and the selftest."""
        with self._lock:
            return {
                "records": self._count,
                "hits": self.hits,
                "misses": self.misses,
                "bloom_skips": self.bloom_skips,
                "integrity_failures": self.integrity_failures,
                "bloom_saturation": round(self._bloom.saturation, 6),
            }
