"""The per-device dataplane core: plan cache + metadata template.

A core owns two things for its device:

* the **compiled plan cache** -- compiled lazily on first use by the
  architecture's plan compiler (:func:`~repro.dp.plan.compile_ipsa_plan`
  or :func:`~repro.dp.plan.compile_fixed_plan`, handed in by the
  switch), counted in ``dp.plan_compiles``, and dropped by
  :meth:`invalidate` whenever a runtime event could change what the
  plan resolved (template write, selector reconfig, table
  create/free/repoint, schema change, full load).  Each invalidation
  bumps a generation counter and a per-reason
  ``dp.plan_invalidations`` metric;
* the **merged metadata template** -- the device's metadata defaults
  folded under the intrinsic fields once, so the front door builds a
  packet's metadata with a single dict copy.

How a packet traverses the device is not the core's business: the one
:func:`~repro.dp.exec.run_pipeline` reads that off the plan.
"""

from __future__ import annotations

from typing import Dict

from repro.net.packet import INTRINSIC_METADATA, Packet
from repro.obs.metrics import MetricsRegistry, Sample


class DataplaneCore:
    """Plan cache, invalidation metrics, metadata template."""

    def __init__(self, device, compile_plan) -> None:
        self.device = device
        self._compile_plan = compile_plan
        self.generation = 0
        #: Epoch pointer: bumped only by :meth:`flip` (a transactional
        #: commit installing a pre-compiled shadow plan).  Invalidation
        #: bumps the generation but never the epoch.
        self.epoch = 0
        self.plan_compiles = 0
        self.plan_invalidations: Dict[str, int] = {}
        self.plan_flips: Dict[str, int] = {}
        self._plan = None
        #: Columnar fast path: the batch front door may vectorize
        #: homogeneous runs when this is on (and NumPy is available).
        #: The compiled columnar program is cached keyed on the scalar
        #: plan *object*, so every invalidate/flip that replaces the
        #: scalar plan implicitly retires the columnar one with it --
        #: same per-reason invalidation and RCU epoch semantics, no
        #: second cache protocol.
        self.columnar_enabled = True
        self._columnar = None  # (scalar plan object, ColumnarProgram)
        self.metadata_template: Dict[str, object] = dict(INTRINSIC_METADATA)

    # -- observability -------------------------------------------------

    def register_metrics(self, metrics: MetricsRegistry) -> None:
        metrics.add_collector("dp", self.metrics_samples)

    def metrics_samples(self):
        yield Sample("dp.plan_compiles", self.plan_compiles)
        yield Sample("dp.plan_generation", self.generation, {}, "gauge")
        yield Sample("dp.plan_epoch", self.epoch, {}, "gauge")
        for reason, count in self.plan_invalidations.items():
            yield Sample("dp.plan_invalidations", count, {"reason": reason})
        for reason, count in self.plan_flips.items():
            yield Sample("dp.plan_flips", count, {"reason": reason})

    # -- plan cache ----------------------------------------------------

    def invalidate(self, reason: str = "update") -> None:
        """Drop the compiled plan (it re-compiles on next use)."""
        self._plan = None
        self.generation += 1
        self.plan_invalidations[reason] = (
            self.plan_invalidations.get(reason, 0) + 1
        )
        self.rebuild_metadata_template()

    def plan(self):
        """The compiled plan, compiling (and counting) if stale."""
        plan = self._plan
        if plan is None:
            plan = self._plan = self._compile_plan(self.device)
            self.plan_compiles += 1
        return plan

    # -- epoch-keyed double buffering ----------------------------------

    def compile_shadow(self, view):
        """Compile a plan against a *shadow device view* without
        touching the live cache.

        The view duck-types whatever the architecture's compiler reads
        (``pipeline``/``tables``/``actions``, plus ``parser``/
        ``deparser`` for PISA).  Transactions use this to pay the full
        compile cost while old plans keep serving traffic.
        """
        plan = self._compile_plan(view)
        self.plan_compiles += 1
        return plan

    def flip(self, plan, reason: str = "txn_commit") -> int:
        """Atomically install a pre-compiled plan as the live one.

        This is the transactional commit's only touch on the plan
        cache: the epoch pointer advances, the generation moves with
        it (so generation-watchers see the change), and the metadata
        template is re-merged from the (already swapped) device state.
        No invalidation is recorded -- the cache never goes cold.
        """
        self._plan = plan
        self.epoch += 1
        self.generation += 1
        self.plan_flips[reason] = self.plan_flips.get(reason, 0) + 1
        self.rebuild_metadata_template()
        return self.epoch

    def rebuild_metadata_template(self) -> None:
        """Re-merge device metadata defaults under the intrinsics."""
        merged = dict(self.device.metadata_defaults)
        merged.update(INTRINSIC_METADATA)
        self.metadata_template = merged

    # -- front-door helpers -------------------------------------------

    def new_packet(self, data: bytes, port: int) -> Packet:
        metadata = dict(self.metadata_template)
        metadata["ingress_port"] = port
        metadata["packet_length"] = len(data)
        return Packet(
            data, first_header=self.device.first_header, metadata=metadata
        )
