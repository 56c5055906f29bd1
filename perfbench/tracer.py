"""Spans and counters recorded around the program's layer entry points.

The tracer wraps public functions and methods of the program from the
benchmark's side (the program itself carries no instrumentation): each
wrapped call records a span ``(id, name, start, end, parent, self)`` and
may bump counters.  A span's self time is its duration minus the time its
child spans cover; spans nest per thread, so the children of a span are
sequential and their durations simply add.

Forked distributed workers inherit the installed wrappers.  Each worker
starts from an empty record and writes its spans and counters to a JSON
file in ``child_dir`` when its worker loop returns; the parent merges them
(:meth:`Tracer.collect_children`).  A worker that is killed takes its
record with it; the ``distributed.workers_killed`` counter says so.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int, float]


class Tracer:
    """In-memory span/counter store with install/uninstall of wrappers."""

    def __init__(self, child_dir: Optional[str] = None) -> None:
        self.child_dir = child_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 1
        self._id_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def _frames(self) -> List[List[Any]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``on_call(tracer, args, kwargs, result)`` runs after a successful
        call, outside the span, to bump counters from the call's inputs
        or result.
        """
        tracer = self

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frames = tracer._frames()
            with tracer._id_lock:
                sid = tracer._next_id
                tracer._next_id += 1
            parent = frames[-1][0] if frames else 0
            frame = [sid, 0.0]  # id, time covered by child spans
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                tracer.spans.append(
                    (sid, name, start, end, parent, duration - frame[1])
                )
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers --------------------------------------------
    def patch(
        self,
        owners: Sequence[Any],
        attr: str,
        name: str,
        on_call: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``attr`` on every owner (module or class) by one wrapper.

        A function imported by name into another module is a separate
        binding there; listing that module among ``owners`` wraps it under
        the name its callers use.
        """
        original = getattr(owners[0], attr)
        wrapped = self.span(name, original, on_call)
        for owner in owners:
            current = getattr(owner, attr)
            if current is not original:
                raise RuntimeError(
                    f"{owner!r}.{attr} is not the same object as on {owners[0]!r}"
                )
            self._patches.append((owner, attr, current))
            setattr(owner, attr, wrapped)

    def patch_raw(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- forked workers -------------------------------------------------
    def child_entry(self, loop: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a worker loop so a forked worker reports its own record."""
        tracer = self

        @wraps(loop)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == tracer.pid or tracer.child_dir is None:
                return loop(*args, **kwargs)
            tracer.reset()  # drop the parent's spans inherited at fork
            try:
                return loop(*args, **kwargs)
            finally:
                tracer._dump_child()

        return wrapper

    def _dump_child(self) -> None:
        from repro.core import get_default_cache
        from repro.distributions.workspace import workspace_stats

        record = {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": dict(self.counters),
            "cache": get_default_cache().stats(),
            "workspaces": {str(k): v for k, v in workspace_stats().items()},
        }
        path = os.path.join(self.child_dir or ".", f"child-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh)
        os.replace(tmp, path)

    def collect_children(self) -> List[Dict[str, Any]]:
        """Read (and remove) the records the forked workers wrote."""
        if self.child_dir is None or not os.path.isdir(self.child_dir):
            return []
        records = []
        for entry in sorted(os.listdir(self.child_dir)):
            if not (entry.startswith("child-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.child_dir, entry)
            with open(path) as fh:
                records.append(json.load(fh))
            os.remove(path)
        return records


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """Total self time per span name."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[1]] += span[5]
    return dict(out)


def span_tree(spans: Sequence[Sequence[Any]]) -> List[Dict[str, Any]]:
    """Spans aggregated by call path: name path -> calls, total, self."""
    by_id = {s[0]: s for s in spans}
    paths: Dict[Tuple[str, ...], List[float]] = {}

    def path_of(span: Sequence[Any]) -> Tuple[str, ...]:
        names = [span[1]]
        parent = span[4]
        while parent in by_id:
            names.append(by_id[parent][1])
            parent = by_id[parent][4]
        return tuple(reversed(names))

    for span in spans:
        acc = paths.setdefault(path_of(span), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += span[3] - span[2]
        acc[2] += span[5]
    return [
        {"path": " > ".join(p), "calls": int(a[0]), "total_s": a[1], "self_s": a[2]}
        for p, a in sorted(paths.items())
    ]
