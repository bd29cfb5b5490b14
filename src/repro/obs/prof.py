"""Low-overhead performance profiler: where did the packet's time go.

PR 1's tracer answers *what the packet did*; the :class:`Profiler`
answers *where the time went*.  Attached to a switch
(``switch.enable_profiling()``) it attributes wall-time and work
counters (headers parsed, table lookups, primitive ops, TM enqueues)
to hierarchical paths like ``("tsp3", "match", "ipv4_lpm")`` or
``("parser", "parse")``.  The path's second element is always the
**phase** (``parse`` / ``match`` / ``execute`` / ``enqueue`` /
``dequeue`` / ``deparse``), which is what makes per-stage shares --
the paper's Sec. 5 cost decomposition -- a one-liner
(:meth:`Profiler.phase_seconds`).

Profiling is **off by default**, same discipline as the tracer: the
untouched hot path pays one ``is None`` check per packet/TSP.  Output
surfaces:

* :func:`format_profile` -- a top-style table sorted by self time;
* :meth:`Profiler.folded` -- Brendan-Gregg folded-stack lines
  (``ipsa;tsp3;match;ipv4_lpm 127``) ready for ``flamegraph.pl`` or
  speedscope;
* :meth:`Profiler.to_dict` -- the same records as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.clock import Clock, MONOTONIC

Path = Tuple[str, ...]

#: Canonical phase names (the second path element).
PHASES = ("parse", "match", "execute", "enqueue", "dequeue", "deparse")


@dataclass
class ProfileRecord:
    """Accumulated cost of one attribution path."""

    path: Path
    calls: int = 0
    seconds: float = 0.0
    work: Dict[str, int] = field(default_factory=dict)

    @property
    def phase(self) -> str:
        return self.path[1] if len(self.path) > 1 else self.path[0]

    def to_dict(self) -> dict:
        return {
            "path": list(self.path),
            "calls": self.calls,
            "seconds": self.seconds,
            "work": dict(self.work),
        }


class Profiler:
    """Attributes wall-time + work counters to component paths.

    The hot-path contract is two calls per timed region::

        started = profiler.now()
        ...work...
        profiler.add(("tsp3", "match", "ipv4_lpm"), started, lookups=1)

    ``add`` reads the clock once, so a region costs exactly two clock
    reads.  Pure counters (no timing) go through :meth:`count`.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or MONOTONIC
        self.records: Dict[Path, ProfileRecord] = {}
        self.packets = 0
        self.engine_lookups: Dict[str, int] = {}

    # -- hot path ----------------------------------------------------------

    def now(self) -> float:
        return self._clock.now()

    def add(self, path: Path, started: float, **work: int) -> float:
        """Close a timed region opened at ``started``; returns now."""
        now = self._clock.now()
        record = self.records.get(path)
        if record is None:
            record = self.records[path] = ProfileRecord(path)
        record.calls += 1
        record.seconds += now - started
        for key, amount in work.items():
            record.work[key] = record.work.get(key, 0) + amount
        return now

    def count(self, path: Path, **work: int) -> None:
        """Bump work counters on a path without timing it."""
        record = self.records.get(path)
        if record is None:
            record = self.records[path] = ProfileRecord(path)
        record.calls += 1
        for key, amount in work.items():
            record.work[key] = record.work.get(key, 0) + amount

    def note_engine(self, kind: str) -> None:
        """Attribute one table lookup to a match-engine kind."""
        self.engine_lookups[kind] = self.engine_lookups.get(kind, 0) + 1

    # -- aggregation -------------------------------------------------------

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records.values())

    def phase_seconds(self) -> Dict[str, float]:
        """Attributed seconds per phase (parse/match/execute/...)."""
        out: Dict[str, float] = {}
        for record in self.records.values():
            phase = record.phase
            out[phase] = out.get(phase, 0.0) + record.seconds
        return out

    def phase_shares(self) -> Dict[str, float]:
        """Per-phase fraction of all attributed time (sums to 1.0)."""
        seconds = self.phase_seconds()
        total = sum(seconds.values())
        if total <= 0:
            return {phase: 0.0 for phase in seconds}
        return {phase: s / total for phase, s in seconds.items()}

    def work_totals(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records.values():
            for key, amount in record.work.items():
                out[key] = out.get(key, 0) + amount
        return out

    def sorted_records(self) -> List[ProfileRecord]:
        """Records by descending self time (the top-style ordering)."""
        return sorted(
            self.records.values(), key=lambda r: (-r.seconds, r.path)
        )

    def reset(self) -> None:
        self.records.clear()
        self.engine_lookups.clear()
        self.packets = 0

    # -- export ------------------------------------------------------------

    def folded(self, root: str = "device") -> List[str]:
        """Brendan-Gregg folded stacks, one line per path.

        The sample unit is the microsecond (rounded, min 1 for any
        path that was hit), so flamegraph widths are time-proportional.
        Untimed counter-only paths weigh their call count instead.
        """
        lines = []
        for record in sorted(self.records.values(), key=lambda r: r.path):
            if record.seconds > 0:
                weight = max(1, round(record.seconds * 1e6))
            else:
                weight = max(1, record.calls)
            lines.append(";".join((root,) + record.path) + f" {weight}")
        return lines

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "total_seconds": self.total_seconds(),
            "phase_seconds": self.phase_seconds(),
            "phase_shares": self.phase_shares(),
            "work": self.work_totals(),
            "engine_lookups": dict(self.engine_lookups),
            "records": [r.to_dict() for r in self.sorted_records()],
        }


def format_profile(profiler: Profiler, top: int = 0) -> str:
    """Top-style rendering: hottest attribution paths first."""
    total = profiler.total_seconds()
    packets = max(1, profiler.packets)
    records = profiler.sorted_records()
    if top > 0:
        records = records[:top]
    lines = [
        f"profile: {profiler.packets} packets, "
        f"{total * 1e3:.3f}ms attributed"
        + (
            f" ({total / packets * 1e9:.0f}ns/pkt)"
            if profiler.packets
            else ""
        ),
        f"{'path':32s} {'calls':>8s} {'total_ms':>9s} {'ns/call':>9s} "
        f"{'share':>6s}  work",
    ]
    for record in records:
        path = ";".join(record.path)
        share = (record.seconds / total * 100) if total > 0 else 0.0
        ns_call = (
            record.seconds / record.calls * 1e9 if record.calls else 0.0
        )
        work = " ".join(
            f"{k}={v}" for k, v in sorted(record.work.items())
        )
        lines.append(
            f"{path:32s} {record.calls:8d} {record.seconds * 1e3:9.3f} "
            f"{ns_call:9.0f} {share:5.1f}%  {work}"
        )
    shares = profiler.phase_shares()
    if shares:
        lines.append(
            "phases: "
            + " ".join(
                f"{phase}={share * 100:.1f}%"
                for phase, share in sorted(
                    shares.items(), key=lambda kv: -kv[1]
                )
            )
        )
    if profiler.engine_lookups:
        lines.append(
            "engines: "
            + " ".join(
                f"{kind}={count}"
                for kind, count in sorted(profiler.engine_lookups.items())
            )
        )
    return "\n".join(lines)
