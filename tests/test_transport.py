"""Unit test for the shard-row transport pair.

Runs the pickle sender/receiver in-process, without spawning worker
processes — the end-to-end paths live in tests/test_distributed.py.
"""

import numpy as np

from repro.engine.transport import PickleRowReceiver, PickleRowSender


class _FakeConn:
    """Captures conn.send() so the sender/receiver pair runs in-process."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class TestSenderReceiverPairs:
    def test_pickle_roundtrip_and_counters(self):
        payload = [
            (1, [np.arange(4, dtype=np.float64), None]),
            (2, [None, None]),
            (3, [np.ones(4), np.full(2, 9.0)]),
        ]
        conn = _FakeConn()
        sender = PickleRowSender()
        receiver = PickleRowReceiver()
        sender.send(conn, payload, {"sample_seconds": 0.5})
        kind, _blob, extra = conn.sent[0]
        assert kind == "rows"
        assert extra == {"sample_seconds": 0.5}
        decoded = receiver.decode(conn.sent[0])
        assert len(decoded) == len(payload)
        for (it_a, parts_a), (it_b, parts_b) in zip(decoded, payload):
            assert it_a == it_b
            for part_a, part_b in zip(parts_a, parts_b):
                if part_b is None:
                    assert part_a is None
                else:
                    np.testing.assert_array_equal(part_a, part_b)
        assert sender.counters.bytes_moved > 0
        assert sender.counters.bytes_moved == receiver.counters.bytes_moved
        assert sender.counters.records == receiver.counters.records == 3
