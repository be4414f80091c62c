"""Shard-row transport for the multiprocessing backend.

Each worker ships one chunk of shard rows as a single pickled payload
over its existing control ``Pipe``: :class:`PickleRowSender` pickles
the chunk on the worker, :class:`PickleRowReceiver` unpickles it on
the parent.  A chunk payload is ``(iteration, [shard-row-or-None per
group])`` per advanced iteration (:data:`ChunkPayload`).  README
"Shard-row transport" holds the measurements behind using the pipe
rather than shared memory.

Both ends count bytes moved and serialization/transfer seconds
(:class:`TransportCounters`), which the executor surfaces in
``DistributedResult.transport_stats`` so benchmarks can show where
wall-clock goes.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

_shm_probe: Optional[bool] = None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` segments work here.

    Probes once by creating (and immediately unlinking) a tiny segment:
    the import can succeed on platforms where ``/dev/shm`` is missing
    or unwritable.  Nothing in the engine depends on the answer; it is
    recorded in benchmark environment stamps.
    """
    global _shm_probe
    if _shm_probe is None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=16)
            segment.close()
            segment.unlink()
            _shm_probe = True
        except Exception:
            _shm_probe = False
    return _shm_probe


#: One chunk's payload: ``(iteration, [shard-row-or-None per group])``
#: per advanced iteration.
ChunkPayload = List[Tuple[int, List[Optional[np.ndarray]]]]


@dataclass
class TransportCounters:
    """Bytes and seconds one endpoint spent moving shard rows."""

    bytes_moved: int = 0
    seconds: float = 0.0
    records: int = 0


class PickleRowSender:
    """Worker side: one pickle per chunk, sent as the chunk's ack.

    ``extra`` rides the ack tuple as a third element — a small plain
    dict of worker-side bookkeeping (cumulative sample and busy
    seconds) the parent's rebalancer and ledgers read.
    """

    def __init__(self) -> None:
        self.counters = TransportCounters()

    def send(self, conn, payload: ChunkPayload, extra=None) -> None:
        tick = time.perf_counter()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.counters.seconds += time.perf_counter() - tick
        self.counters.bytes_moved += len(blob)
        self.counters.records += len(payload)
        conn.send(("rows", blob, extra))


class PickleRowReceiver:
    """Parent side: unpickle one worker's chunk ack."""

    def __init__(self) -> None:
        self.counters = TransportCounters()

    def decode(self, reply) -> ChunkPayload:
        blob = reply[1]
        tick = time.perf_counter()
        payload = pickle.loads(blob)
        self.counters.seconds += time.perf_counter() - tick
        self.counters.bytes_moved += len(blob)
        self.counters.records += len(payload)
        return payload
