"""Benchmark-owned spans around the calls into each layer.

The program under test is not instrumented.  A :class:`Recorder` keeps
``[id, parent, layer, name, t0, t1, thread]`` rows in memory; the
benchmark opens spans at its own call sites (``begin``/``end``) and
installs thin timing shims on public callables the layers call on each
other (``switch.inject`` under the fabric walker, ``encode_frame``
inside the channel, ...).  Shims are installed for a traced pass and
removed after it, so an untraced pass runs the program untouched.

Each shim target is probed independently: a callable that a later
refactor removed lands in ``unavailable`` instead of aborting the run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

ID, PARENT, LAYER, NAME, T0, T1, THREAD = range(7)
FIELDS = ("id", "parent", "layer", "name", "t0", "t1", "thread")


class Recorder:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rows_by_thread: Dict[str, List[list]] = {}
        self._shims: List[Tuple[object, str, object, bool]] = []
        self.unavailable: List[str] = []
        self.client = threading.current_thread().name
        #: Innermost open span of the client thread: with one closed-loop
        #: client it is what caused any span a worker thread opens.
        self._client_open = 0

    # -- spans ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            name = threading.current_thread().name
            rows = self._rows_by_thread.setdefault(name, [])
            state = self._local.state = (name, rows, [])
        return state

    def begin(self, layer: str, name: str) -> None:
        thread, rows, stack = self._state()
        parent = stack[-1][ID] if stack else (
            self._client_open if thread != self.client else 0
        )
        row = [next(self._ids), parent, layer, name, 0.0, 0.0, thread]
        rows.append(row)
        stack.append(row)
        if thread == self.client:
            self._client_open = row[ID]
        row[T0] = time.perf_counter()

    def end(self) -> None:
        now = time.perf_counter()
        thread, _rows, stack = self._state()
        row = stack.pop()
        row[T1] = now
        if thread == self.client:
            self._client_open = stack[-1][ID] if stack else 0

    def rows(self) -> List[list]:
        merged = [row for rows in self._rows_by_thread.values() for row in rows]
        merged.sort(key=lambda row: row[ID])
        return merged

    # -- shims ---------------------------------------------------------

    def shim(self, owner, attr: str, layer: str,
             probe: Optional[str] = None) -> bool:
        """Wrap ``owner.attr`` (an instance method or a module function)
        in a span until :meth:`remove_shims`."""
        original = getattr(owner, attr, None)
        if not callable(original):
            label = probe or f"{layer}.{attr}"
            if label not in self.unavailable:
                self.unavailable.append(label)
            return False
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(layer, attr)
            try:
                return original(*args, **kwargs)
            finally:
                end()

        had_own = attr in getattr(owner, "__dict__", {})
        self._shims.append((owner, attr, original, had_own))
        setattr(owner, attr, traced)
        return True

    def remove_shims(self) -> None:
        while self._shims:
            owner, attr, original, had_own = self._shims.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # fall back to the class attribute


# -- analysis ----------------------------------------------------------


def self_times(rows: Iterable[list]) -> Dict[int, float]:
    """Span id -> duration minus what its same-thread children cover.

    Children on another thread run beside their cause, not inside it,
    so they are not subtracted.
    """
    by_id = {row[ID]: row for row in rows}
    own = {row[ID]: row[T1] - row[T0] for row in by_id.values()}
    for row in by_id.values():
        parent = by_id.get(row[PARENT])
        if parent is not None and parent[THREAD] == row[THREAD]:
            own[parent[ID]] -= row[T1] - row[T0]
    return own


class Summary:
    """Seconds and calls by (layer, name), and self time by layer on the
    client thread and on the others.  Plain dicts: a span that was never
    recorded is a ``KeyError``, not a zero."""

    def __init__(self, rows: List[list], client: str) -> None:
        own = self_times(rows)
        total: Dict[Tuple[str, str], float] = defaultdict(float)
        self_: Dict[Tuple[str, str], float] = defaultdict(float)
        calls: Dict[Tuple[str, str], int] = defaultdict(int)
        client_self: Dict[str, float] = defaultdict(float)
        worker_self: Dict[str, float] = defaultdict(float)
        for row in rows:
            key = (row[LAYER], row[NAME])
            total[key] += row[T1] - row[T0]
            self_[key] += own[row[ID]]
            calls[key] += 1
            by_layer = client_self if row[THREAD] == client else worker_self
            by_layer[row[LAYER]] += own[row[ID]]
        self.total, self.self_, self.calls = dict(total), dict(self_), dict(calls)
        self.client_self_by_layer = dict(client_self)
        self.worker_self_by_layer = dict(worker_self)

    def layer_total(self, layer: str) -> float:
        return sum(v for (lay, _n), v in self.total.items() if lay == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for (lay, _n), v in self.calls.items() if lay == layer)
