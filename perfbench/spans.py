"""In-memory span recorder that wraps the program's public seams from outside.

The benchmark traces by patching functions and methods of the installed
``repro`` modules for the duration of a traced phase; nothing in the
program changes.  Each span records a name, start, end, parent span and
the benchmark request it belongs to.  Spans stay in memory until the
run ends, when :meth:`Tracer.chrome_trace` renders them as Chrome
trace-event JSON (it opens in Perfetto) and :meth:`Tracer.self_times`
reduces them to per-request self times: a span's duration minus the
part of it its child spans cover.

Only the process that installed the patches records.  The
multiprocessing backend forks its worker ranks after installation, so
the wrappers check the pid and call straight through in a worker; the
workers' time is read from the program's own ``transport_stats``.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: One recorded span: (id, parent id, request id, name, start, end, thread).
Span = Tuple[int, int, Optional[int], str, float, float, int]


class Tracer:
    """Records spans around patched callables; :meth:`close` restores them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self.origin = perf_counter()
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, self.request, name, start, end,
                 threading.get_ident())
            )

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`close`.

        ``before(*args, **kwargs)`` runs ahead of the span, for counters
        that must see the call's inputs (it is not part of the span).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            return tracer.record(name, original, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count(self, owner: object, attr: str, counter: Callable) -> None:
        """Call ``counter()`` on every call of ``owner.attr``; no span."""
        original = getattr(owner, attr)
        pid = self._pid

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if os.getpid() == pid:
                counter()
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Dict[Optional[int], Dict[str, List[float]]]:
        """``{request: {name: [self seconds summed, calls]}}``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _req, _name, start, end, _tid in self.spans:
            if parent:
                child_time[parent] += end - start
        out: Dict[Optional[int], Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )
        for sid, _parent, request, name, start, end, _tid in self.spans:
            entry = out[request][name]
            entry[0] += (end - start) - child_time.get(sid, 0.0)
            entry[1] += 1
        return out

    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
        pid = self._pid
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "request": request},
            }
            for sid, parent, request, name, start, end, tid in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
