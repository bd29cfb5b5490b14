"""The controller: compile, download, and in-situ program a live switch.

The rP4 design flow (paper Fig. 3) end to end:

1. ``load_base``   -- rp4bc compiles the base design; the full config
   crosses the control channel and the device performs its initial
   load (compile time ``t_C`` and loading time ``t_L`` are measured
   separately, as in Table 1).
2. ``run_script``  -- an incremental update: rp4bc compiles only the
   snippet + commands; only the *delta* (new templates, selector,
   header links, new tables) crosses the channel; the device drains,
   patches, and resumes.  Existing entries survive; only new tables
   need population.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.validate import check_config
from repro.compiler.rp4bc import (
    CompiledDesign,
    TargetSpec,
    UpdatePlan,
    compile_base,
    compile_update,
)
from repro.ipsa.switch import IpsaSwitch, UpdateStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.runtime.channel import ControlChannel
from repro.runtime.table_api import TableApi
from repro.tables.table import TableEntry

#: Histogram edges (seconds) for compile/load flow timings.
FLOW_SECONDS_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class ControllerError(Exception):
    """Raised on misuse (e.g. scripting before a base design loads)."""


class UnsafeUpdateError(ControllerError):
    """A pre-apply safety gate (rp4lint or rp4verify) rejected an
    update plan."""

    def __init__(self, diagnostics, gate: str = "rp4lint") -> None:
        super().__init__(
            f"update rejected by {gate}: "
            + "; ".join(d.format() for d in diagnostics)
        )
        self.diagnostics = list(diagnostics)
        self.gate = gate


@dataclass
class FlowTiming:
    """One design-flow step's measured costs (a Table 1 cell)."""

    compile_seconds: float = 0.0
    load_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.load_seconds


@dataclass
class _UndoRecord:
    """What rollback needs: the prior design plus the entries of every
    table the update freed (so a rollback can restore them)."""

    design: CompiledDesign
    freed_entries: Dict[str, List[TableEntry]]


class StagedUpdate:
    """A compiled, linted, prepared-and-validated update awaiting
    :meth:`commit` (or :meth:`abort`).

    The expensive work -- snippet compile, lint gate, channel
    transfer, shadow-state build, dp plan pre-compile -- is already
    done; commit is only the device-side epoch flip plus controller
    bookkeeping.  This is what lets a fabric rollout stage every node
    first and flip them wave by wave.
    """

    def __init__(self, controller, plan, update, txn, timeline, timing,
                 freed_entries, script_bytes) -> None:
        self.controller = controller
        self.plan: UpdatePlan = plan
        self.update = update
        self.txn = txn
        self.timeline = timeline
        self.timing = timing
        self.freed_entries: Dict[str, List[TableEntry]] = freed_entries
        self.script_bytes = script_bytes
        self.committed = False
        self.aborted = False

    def commit(self) -> Tuple[UpdatePlan, UpdateStats, FlowTiming]:
        """Flip the device to the staged design."""
        if self.committed or self.aborted:
            raise ControllerError("staged update already resolved")
        controller = self.controller
        controller.channel.send(
            {"txn": self.txn.txn_id}, kind="update.commit"
        )
        stats = self.txn.commit()
        apply_phase = self.timeline.phase(
            "apply",
            drained_packets=stats.drained_packets,
            templates_written=stats.templates_written,
        )
        self.timing.load_seconds = (
            self.timing.load_seconds + apply_phase.duration
        )
        self.timeline.finish()
        self.committed = True

        controller._undo.append(
            _UndoRecord(controller.design, self.freed_entries)
        )
        controller.design = self.plan.design
        controller.history.append(f"script:{self.script_bytes}B")
        controller._n_updates.inc()
        controller._h_compile.observe(self.timing.compile_seconds)
        controller._h_load.observe(self.timing.load_seconds)
        return self.plan, stats, self.timing

    def abort(self) -> None:
        """Discard the staged update; the device is untouched."""
        if self.committed:
            raise ControllerError("cannot abort a committed update")
        if self.aborted:
            return
        self.controller.channel.send(
            {"txn": self.txn.txn_id}, kind="update.abort"
        )
        self.txn.abort()
        self.timeline.phase("abort")
        self.timeline.finish()
        self.aborted = True
        self.controller.history.append("abort")


class Controller:
    """CLI-less core of the paper's controller."""

    def __init__(
        self,
        target: Optional[TargetSpec] = None,
        switch: Optional[IpsaSwitch] = None,
        lint_updates: bool = True,
        verify_updates: str = "warn",
    ) -> None:
        self.target = target or TargetSpec()
        self.switch = switch or IpsaSwitch(n_tsps=self.target.n_tsps)
        self.channel = ControlChannel()
        self.design: Optional[CompiledDesign] = None
        #: Pre-apply rp4lint gate: verify every update plan (selector
        #: bounds, no stranded fields, post-update program re-lint)
        #: before anything touches the live switch.
        self.lint_updates = lint_updates
        #: rp4verify staging gate mode: ``off`` skips it, ``warn``
        #: records the report without blocking, ``error`` aborts the
        #: staged txn on error-severity findings (confirmed unintended
        #: divergence), ``strict`` aborts on warnings too.
        if verify_updates not in ("off", "warn", "error", "strict"):
            raise ValueError(
                f"verify_updates must be off/warn/error/strict, "
                f"got {verify_updates!r}"
            )
        self.verify_updates = verify_updates
        #: Diagnostics from the most recent update gate (warnings/info).
        self.last_lint: List[object] = []
        #: :class:`~repro.analysis.verify.VerifyReport` from the most
        #: recent rp4verify staging gate run (None while ``off``).
        self.last_verify = None
        #: Optional fleet-shared :class:`~repro.runtime.workers.
        #: UpdatePlanCache`.  When set, :meth:`stage_update` reuses a
        #: content-identical compile (plus its lint findings and clean
        #: verify report) instead of recomputing them per node -- the
        #: sharded fabric installs one cache across a whole rollout.
        self.plan_cache = None
        self.history: List[str] = []
        self._undo: List[_UndoRecord] = []
        self.timelines = TimelineRecorder()
        self.metrics = MetricsRegistry()
        self._n_base_loads = self.metrics.counter("controller.base_loads")
        self._n_updates = self.metrics.counter("controller.updates_applied")
        self._n_rollbacks = self.metrics.counter("controller.rollbacks")
        self._h_compile = self.metrics.histogram(
            "controller.compile_seconds", FLOW_SECONDS_BOUNDS
        )
        self._h_load = self.metrics.histogram(
            "controller.load_seconds", FLOW_SECONDS_BOUNDS
        )
        self.metrics.add_collector("channel", self.channel.metrics_samples)

    # -- base design flow ------------------------------------------------

    def load_base(self, rp4_source: str) -> FlowTiming:
        """Compile and download a complete base design."""
        timing = FlowTiming()
        timeline = self.timelines.begin("load_base", source_bytes=len(rp4_source))
        design = compile_base(rp4_source, self.target)
        timing.compile_seconds = timeline.phase(
            "compile", templates=len(design.templates)
        ).duration

        check_config(design.config, n_tsps=self.target.n_tsps)
        timeline.phase("validate")
        config = self.channel.send(design.config, kind="config.load")
        self.switch.load_config(config)
        timing.load_seconds = timeline.phase(
            "load", tables=len(config.get("tables", {}))
        ).duration
        timeline.finish()

        self.design = design
        self.history.append("load_base")
        self._n_base_loads.inc()
        self._h_compile.observe(timing.compile_seconds)
        self._h_load.observe(timing.load_seconds)
        return timing

    def load_design(self, design: CompiledDesign) -> FlowTiming:
        """Download an already-compiled base design.

        The fleet fast path: a thousand-node fabric compiles the base
        source once and loads the same design everywhere -- only the
        per-node download (channel transfer + device load) repeats.
        """
        timing = FlowTiming()
        timeline = self.timelines.begin(
            "load_design", tables=len(design.config.get("tables", {}))
        )
        check_config(design.config, n_tsps=self.target.n_tsps)
        timeline.phase("validate")
        config = self.channel.send(design.config, kind="config.load")
        self.switch.load_config(config)
        timing.load_seconds = timeline.phase(
            "load", tables=len(config.get("tables", {}))
        ).duration
        timeline.finish()
        self.design = design
        self.history.append("load_design")
        self._n_base_loads.inc()
        self._h_load.observe(timing.load_seconds)
        return timing

    # -- incremental flow ----------------------------------------------------

    def stage_update(
        self,
        script_text: str,
        sources: Optional[Dict[str, str]] = None,
    ) -> StagedUpdate:
        """Compile, lint, transfer, and *stage* an in-situ update.

        Runs the transaction's prepare and validate phases on the
        device; the returned :class:`StagedUpdate` commits (or aborts)
        at the caller's chosen moment.  Any failure up to here leaves
        the device byte-identical to its pre-update state.
        """
        if self.design is None:
            raise ControllerError("no base design loaded")
        timing = FlowTiming()
        timeline = self.timelines.begin(
            "run_script", script_bytes=len(script_text)
        )
        cache = self.plan_cache
        entry = None
        fingerprint = None
        if cache is not None:
            fingerprint = cache.fingerprint(self.design, script_text, sources)
            entry = cache.get(fingerprint)
        if entry is not None:
            plan = entry.plan
            timing.compile_seconds = timeline.phase(
                "compile",
                rewritten_tsps=list(plan.rewritten_tsps),
                cached=True,
            ).duration
        else:
            plan = compile_update(self.design, script_text, sources)
            timing.compile_seconds = timeline.phase(
                "compile", rewritten_tsps=list(plan.rewritten_tsps)
            ).duration

        if self.lint_updates:
            if entry is not None and entry.lint is not None:
                # The cached compile passed the gate; its (non-fatal)
                # findings apply verbatim to a content-identical node.
                self.last_lint = list(entry.lint)
                timeline.phase(
                    "lint", findings=len(self.last_lint), cached=True
                )
            else:
                self._lint_gate(plan)
                timeline.phase("lint", findings=len(self.last_lint))

        if entry is not None:
            message = entry.message
            update = self.channel.send(
                message,
                kind="update.prepare",
                payload_json=entry.message_json,
            )
        else:
            message = plan.update_message(self.design.config)
            update = self.channel.send(message, kind="update.prepare")
        timing.load_seconds = timeline.phase("transfer").duration

        # Freed tables lose their Table objects at commit; snapshot
        # their entries now so a later rollback can restore them.
        freed_entries: Dict[str, List[TableEntry]] = {}
        for name in update.get("freed_tables", []):
            table = self.switch.tables.get(name)
            if table is not None:
                freed_entries[name] = [
                    TableEntry(
                        key=entry.key,
                        action=entry.action,
                        action_data=dict(entry.action_data),
                        tag=entry.tag,
                        priority=entry.priority,
                    )
                    for entry in table.entries()
                ]

        txn = self.switch.begin_update(update)
        if entry is not None and entry.templates_parsed is not None:
            txn.shared_templates = entry.templates_parsed

        pool_findings: Optional[List[str]] = (
            entry.pool_findings if entry is not None else None
        )

        def check_pool(t) -> None:
            # The incremental compile allocated the new tables on a
            # cloned pool; a corrupt allocation must fail validate,
            # never commit.  The pool object travels with the cached
            # plan, so a cache hit reuses the canary's walk verbatim.
            nonlocal pool_findings
            if pool_findings is None:
                pool_findings = [
                    f"memory pool: {finding}"
                    for finding in plan.design.pool.verify()
                ]
            t.findings.extend(pool_findings)

        txn.validators.append(check_pool)
        txn.prepare()
        txn.validate()
        if self.verify_updates != "off":
            cached_report = entry.verify_report if entry is not None else None
            if cached_report is not None and self._verify_reusable(
                cached_report
            ):
                # The canary's clean differential report vouches for a
                # content-identical peer: same design bytes, same
                # staged update, same semantics.  Anything with
                # findings is re-verified against *this* device.
                self.last_verify = cached_report
                timeline.phase(
                    "verify",
                    classes=len(cached_report.classes),
                    drift=len(cached_report.drift),
                    findings=len(cached_report.diagnostics),
                    cached=True,
                )
            else:
                self._verify_gate(plan, txn, timeline)
        if cache is not None and entry is None:
            from repro.runtime.workers import PlanCacheEntry

            cache.put(
                fingerprint,
                PlanCacheEntry(
                    plan=plan,
                    message=message,
                    lint=(
                        list(self.last_lint) if self.lint_updates else None
                    ),
                    verify_report=(
                        self.last_verify
                        if self.verify_updates != "off"
                        else None
                    ),
                    message_json=json.dumps(message, sort_keys=True),
                    pool_findings=pool_findings,
                    templates_parsed=getattr(txn, "_parsed", None),
                ),
            )
        return StagedUpdate(
            self, plan, update, txn, timeline, timing, freed_entries,
            len(script_text),
        )

    def run_script(
        self,
        script_text: str,
        sources: Optional[Dict[str, str]] = None,
    ) -> Tuple[UpdatePlan, UpdateStats, FlowTiming]:
        """Compile and apply an in-situ update script (stage + commit)."""
        return self.stage_update(script_text, sources).commit()

    def _lint_gate(self, plan: UpdatePlan) -> None:
        """Pre-apply safety gate: family 4 (update-plan safety) plus a
        full re-lint of the post-update program (families 1-3).  Raises
        :class:`UnsafeUpdateError` on any error-severity finding --
        before a single byte crosses the control channel."""
        from repro.analysis.diag import errors
        from repro.analysis.linter import lint_design
        from repro.analysis.update_safety import lint_update

        diagnostics = lint_update(self.design, plan)
        diagnostics.extend(lint_design(plan.design, path="<post-update>"))
        fatal = errors(diagnostics)
        if fatal:
            raise UnsafeUpdateError(fatal)
        self.last_lint = diagnostics

    @staticmethod
    def _verify_reusable(report) -> bool:
        """A cached verify report transfers to a peer node only when
        it is unconditionally clean (nothing at warning severity or
        above), so every gate mode would accept it unchanged."""
        from repro.analysis.diag import Severity

        return all(
            d.severity < Severity.WARNING for d in report.diagnostics
        )

    def _verify_gate(self, plan: UpdatePlan, txn, timeline) -> None:
        """rp4verify staging gate: differential verification of the
        prepared shadow against the live device, run after validate
        and before the :class:`StagedUpdate` is handed back -- the
        last word before any epoch flip.

        The default two-tier configuration is cheap: a structural
        claimed-vs-staged diff plus an extern hazard scan; full
        symbolic flow-class enumeration (with witness synthesis and
        pure-replay confirmation) only kicks in when unclaimed drift
        is detected.  On a fatal finding the staged txn is aborted --
        device byte-identical -- and :class:`UnsafeUpdateError` is
        raised.
        """
        from repro.analysis.diag import Severity
        from repro.analysis.verify import verify_txn

        report = verify_txn(self.switch, txn, plan=plan)
        self.last_verify = report
        timeline.phase(
            "verify",
            classes=len(report.classes),
            drift=len(report.drift),
            findings=len(report.diagnostics),
        )
        threshold = (
            Severity.WARNING
            if self.verify_updates == "strict"
            else Severity.ERROR
        )
        fatal = [d for d in report.diagnostics if d.severity >= threshold]
        if fatal and self.verify_updates in ("error", "strict"):
            self.channel.send({"txn": txn.txn_id}, kind="update.abort")
            txn.abort()
            timeline.phase("abort")
            timeline.finish()
            self.history.append("verify-reject")
            raise UnsafeUpdateError(fatal, gate="rp4verify")

    # -- failback ---------------------------------------------------------

    def rollback(self) -> List[str]:
        """Fail back to the design before the last update.

        The intro's live-trial story: "live trials in production
        networks can be conducted with reliable failback procedure."
        Rollback is itself an in-situ update -- drain, rewrite the
        differing templates, undo the header links, recreate the
        tables the trial removed, free the ones it added.

        Returns the names of restored tables.  Their entries come back
        too: the update that freed them snapshotted the rows (see
        :meth:`stage_update`), and rollback replays the snapshot into
        the recreated tables.
        """
        if not self._undo:
            raise ControllerError("nothing to roll back")
        if self.design is None:
            raise ControllerError("no design loaded")
        timeline = self.timelines.begin("rollback")
        record = self._undo.pop()
        previous = record.design
        current = self.design

        old_templates = {t["tsp"]: t for t in current.templates}
        templates = [
            t for t in previous.templates if old_templates.get(t["tsp"]) != t
        ]

        def links_of(config):
            return {
                (name, tag, nxt)
                for name, spec in config.get("headers", {}).items()
                for tag, nxt in spec.get("links", [])
            }

        prev_links = links_of(previous.config)
        cur_links = links_of(current.config)
        prev_tables = previous.config.get("tables", {})
        cur_tables = set(current.config.get("tables", {}))
        restored = sorted(set(prev_tables) - cur_tables)

        message = {
            "templates": templates,
            "selector": previous.config.get("selector", {}),
            "link_headers": [list(l) for l in sorted(prev_links - cur_links)],
            "unlink_headers": [
                [pre, tag] for pre, tag, _ in sorted(cur_links - prev_links)
            ],
            "new_metadata": previous.config.get("metadata", []),
            "new_headers": {
                name: spec
                for name, spec in previous.config.get("headers", {}).items()
                if name not in current.config.get("headers", {})
            },
            "new_actions": {
                name: spec
                for name, spec in previous.config.get("actions", {}).items()
                if name not in current.config.get("actions", {})
            },
            "new_tables": {name: prev_tables[name] for name in restored},
            "freed_tables": sorted(cur_tables - set(prev_tables)),
        }
        timeline.phase(
            "plan", templates=len(templates), restored_tables=list(restored)
        )
        update = self.channel.send(message, kind="update.rollback")
        timeline.phase("transfer")
        self.switch.apply_update(update)
        for name in restored:
            table = self.switch.tables.get(name)
            if table is None:
                continue
            for entry in record.freed_entries.get(name, []):
                table.add_entry(entry)
        timeline.phase("apply", restored_entries=sum(
            len(record.freed_entries.get(name, [])) for name in restored
        ))
        timeline.finish()
        self.design = previous
        self.history.append("rollback")
        self._n_rollbacks.inc()
        recorder = self.switch.flight_recorder
        if recorder is not None:
            # This is the post-mortem trigger: a recorder configured
            # with dump_on=("rollback",) freezes its ring here.
            recorder.record("rollback", restored_tables=list(restored))
        return restored

    # -- table access ------------------------------------------------------------

    def action_tags(self, table_name: str) -> Dict[str, int]:
        """action name -> executor tag, from the stage applying the table."""
        if self.design is None:
            return {}
        for stage in self.design.program.all_stages().values():
            if any(arm.table == table_name for arm in stage.matcher):
                return {
                    action: tag
                    for tag, action in stage.executor.items()
                    if isinstance(tag, int)
                }
        return {}

    def api(self, table_name: str) -> TableApi:
        """A validated runtime API for one table (rp4fc's output bound
        to the live device)."""
        table = self.switch.table(table_name)
        return TableApi(table, action_tags=self.action_tags(table_name))

    def tables(self) -> Dict[str, TableApi]:
        """APIs for every table on the device."""
        return {name: self.api(name) for name in self.switch.tables}
