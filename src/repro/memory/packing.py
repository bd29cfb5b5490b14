"""Block-packing solvers for table allocation (paper Sec. 3.2).

The paper formulates table placement in the memory pool as a set
packing problem (NP-complete) and embeds the YALMIP solver.  We
provide two solvers over the same formulation:

* :func:`pack_branch_and_bound` -- exact search minimizing the total
  *spread* (number of distinct clusters each table touches), which is
  the migration-cost proxy from Sec. 2.4 ("if a logical pipeline stage
  is moved to a TSP in another cluster, the associated tables also
  need to be migrated").
* :func:`pack_greedy` -- first-fit-decreasing heuristic, used by the
  runtime incremental flow where placement latency matters more than
  optimality.

Inputs: per-table :class:`Demand` (kind, block count, clusters its
TSP(s) can reach through the crossbar) and the free-block counts per
``(cluster, kind)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memory.blocks import MemoryKind


@dataclass(frozen=True)
class Demand:
    """One table's block requirement."""

    table: str
    kind: MemoryKind
    count: int
    allowed_clusters: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"demand for {self.table!r} must be positive")
        if not self.allowed_clusters:
            raise ValueError(
                f"demand for {self.table!r} has no reachable clusters"
            )


@dataclass
class PackingResult:
    """Assignment of block counts to clusters, per table."""

    assignment: Dict[str, Dict[int, int]] = field(default_factory=dict)
    feasible: bool = True
    spread: int = 0  # sum over tables of clusters touched
    nodes_explored: int = 0  # search effort (for the ablation bench)


FreeMap = Dict[Tuple[int, MemoryKind], int]


def _fit_one(
    demand: Demand, free: FreeMap, prefer_single: bool = True
) -> Optional[Dict[int, int]]:
    """Place one demand into the free map (mutating it); None if impossible."""
    candidates = [
        (c, free.get((c, demand.kind), 0))
        for c in demand.allowed_clusters
    ]
    candidates = [(c, f) for c, f in candidates if f > 0]
    if prefer_single:
        # Prefer the single cluster with the tightest still-sufficient fit.
        sufficient = [(f, c) for c, f in candidates if f >= demand.count]
        if sufficient:
            _, cluster = min(sufficient)
            free[(cluster, demand.kind)] -= demand.count
            return {cluster: demand.count}
    # Spill across clusters, fullest-first, to keep spread low.
    placed: Dict[int, int] = {}
    remaining = demand.count
    for cluster, avail in sorted(candidates, key=lambda cf: -cf[1]):
        take = min(avail, remaining)
        if take:
            placed[cluster] = take
            remaining -= take
        if remaining == 0:
            break
    if remaining:
        return None
    for cluster, take in placed.items():
        free[(cluster, demand.kind)] -= take
    return placed


def pack_greedy(demands: Sequence[Demand], free_blocks: FreeMap) -> PackingResult:
    """First-fit-decreasing heuristic: big, constrained demands first."""
    free = dict(free_blocks)
    result = PackingResult()
    order = sorted(
        demands, key=lambda d: (len(d.allowed_clusters), -d.count)
    )
    for demand in order:
        placed = _fit_one(demand, free)
        if placed is None:
            result.feasible = False
            return result
        result.assignment[demand.table] = placed
        result.spread += len(placed)
    return result


def pack_branch_and_bound(
    demands: Sequence[Demand],
    free_blocks: FreeMap,
    node_limit: int = 200_000,
) -> PackingResult:
    """Exact minimum-spread packing via branch and bound.

    Falls back to the greedy answer if the node limit is hit before
    the search completes (the greedy answer is always a valid bound).
    """
    greedy = pack_greedy(demands, free_blocks)
    best_spread = greedy.spread if greedy.feasible else None
    best_assignment = dict(greedy.assignment) if greedy.feasible else None

    order = sorted(demands, key=lambda d: (len(d.allowed_clusters), -d.count))
    nodes = 0
    limit_hit = False

    def choices(demand: Demand, free: FreeMap) -> List[Dict[int, int]]:
        """Candidate placements, single-cluster first, then 2-cluster splits."""
        out: List[Dict[int, int]] = []
        avail = {
            c: free.get((c, demand.kind), 0) for c in demand.allowed_clusters
        }
        for c, f in sorted(avail.items(), key=lambda cf: cf[1]):
            if f >= demand.count:
                out.append({c: demand.count})
        clusters = [c for c, f in avail.items() if f > 0]
        for i, c1 in enumerate(clusters):
            for c2 in clusters[i + 1 :]:
                a, b = avail[c1], avail[c2]
                if a + b >= demand.count and a < demand.count and b < demand.count:
                    take1 = min(a, demand.count)
                    out.append({c1: take1, c2: demand.count - take1})
        if not out and sum(avail.values()) >= demand.count:
            # General spill (rare; >2 clusters).
            placed: Dict[int, int] = {}
            remaining = demand.count
            for c, f in sorted(avail.items(), key=lambda cf: -cf[1]):
                take = min(f, remaining)
                if take:
                    placed[c] = take
                    remaining -= take
            if remaining == 0:
                out.append(placed)
        return out

    def search(
        index: int, free: FreeMap, partial: Dict[str, Dict[int, int]], spread: int
    ) -> None:
        nonlocal nodes, best_spread, best_assignment, limit_hit
        if limit_hit:
            return
        nodes += 1
        if nodes > node_limit:
            limit_hit = True
            return
        if best_spread is not None and spread + (len(order) - index) >= best_spread:
            return  # each remaining table adds at least spread 1
        if index == len(order):
            best_spread = spread
            best_assignment = {t: dict(p) for t, p in partial.items()}
            return
        demand = order[index]
        for placement in choices(demand, free):
            for c, take in placement.items():
                free[(c, demand.kind)] -= take
            partial[demand.table] = placement
            search(index + 1, free, partial, spread + len(placement))
            del partial[demand.table]
            for c, take in placement.items():
                free[(c, demand.kind)] += take

    search(0, dict(free_blocks), {}, 0)

    if best_assignment is None:
        return PackingResult(feasible=False, nodes_explored=nodes)
    return PackingResult(
        assignment=best_assignment,
        feasible=True,
        spread=best_spread or 0,
        nodes_explored=nodes,
    )
