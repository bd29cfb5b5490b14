"""Transactional in-service updates: prepare -> validate -> commit (-> abort).

The paper's headline claim is that in-situ updates avoid the
recompile-and-reload disruption -- but a stop-the-world patch path
still stalls traffic for the whole template-parse + plan-recompile
window and strands partial state if any step throws.  This module
turns a device update into a transaction:

* **prepare** builds *shadow state* -- cloned header/linkage schema,
  shadow action/table dictionaries, pre-parsed ``StageRuntime``
  templates, and a **pre-compiled dp plan** against a shadow device
  view -- while the old plans keep serving traffic.  Nothing live is
  touched.
* **validate** checks the staged state (selector bounds, resolved
  table/action references, caller-installed validators) before a
  single live byte moves.
* **commit** pauses intake, flips the live dictionaries and the dp
  epoch pointer, and resumes -- the stall window covers only this
  pointer swap.  In-flight packets that entered under the old epoch
  then *complete through the retained old plan* (no traffic
  discarded), interleaved with new-epoch intake.
* **abort** (or any prepare/validate failure) discards the shadow
  state; the live config, tables, memory mappings, and compiled plans
  are untouched, byte for byte.

Each phase records a span on the device's ``apply_update`` timeline
and bumps ``txn.*`` metrics on the device registry.
"""

from __future__ import annotations

import enum
import itertools
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from repro.compiler.lowering import action_from_json
from repro.ipsa.pipeline import ElasticPipeline, PipelineError, SelectorConfig
from repro.ipsa.tsp import StageRuntime, TspState

#: Histogram edges (seconds) for commit stall windows.
TXN_STALL_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)


class TxnError(Exception):
    """Base class for transaction failures."""


class TxnStateError(TxnError):
    """A phase was invoked out of protocol order."""


class TxnValidationError(TxnError):
    """The validate phase rejected the staged update."""

    def __init__(self, findings: List[str]) -> None:
        super().__init__("update rejected by validate: " + "; ".join(findings))
        self.findings = list(findings)


class TxnPhase(enum.Enum):
    PENDING = "pending"
    PREPARED = "prepared"
    VALIDATED = "validated"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _ShadowTsp:
    """A TSP as it will look post-commit: same stats sink, staged
    side/stages/state.  Duck-types what the plan compiler reads."""

    __slots__ = ("index", "side", "stages", "state", "stats")

    def __init__(self, index, side, stages, state, stats) -> None:
        self.index = index
        self.side = side
        self.stages = stages
        self.state = state
        self.stats = stats

    @property
    def active(self) -> bool:
        return self.state is TspState.ACTIVE and bool(self.stages)


class _DeviceTransaction:
    """Shared phase machinery for both architectures."""

    _ids = itertools.count(1)

    def __init__(self, switch, timeline_label: str) -> None:
        self.switch = switch
        self.txn_id = next(self._ids)
        self.phase = TxnPhase.PENDING
        #: Caller-installed extra checks, run during validate.  Each
        #: callable receives the transaction; raising aborts it.
        self.validators: List[Callable[["_DeviceTransaction"], None]] = []
        self.findings: List[str] = []
        self._timeline = None
        self._timeline_label = timeline_label

    # -- protocol ------------------------------------------------------

    def prepare(self) -> "_DeviceTransaction":
        self._require(TxnPhase.PENDING, "prepare")
        self._timeline = self.switch.timelines.begin(
            self._timeline_label, txn=self.txn_id
        )
        try:
            self._build_shadow()
        except Exception as exc:
            self._abort_on_failure(exc)
            raise
        self._mark_phase("prepare", **self._prepare_attrs())
        self.phase = TxnPhase.PREPARED
        self._count("txn.prepared")
        return self

    def validate(self) -> "_DeviceTransaction":
        self._require(TxnPhase.PREPARED, "validate")
        self.findings = []
        try:
            self._check_shadow()
            for check in self.validators:
                check(self)
        except Exception as exc:
            self._abort_on_failure(exc)
            raise
        if self.findings:
            error = TxnValidationError(self.findings)
            self._abort_on_failure(error)
            raise error
        self._mark_phase("validate", findings=len(self.findings))
        self.phase = TxnPhase.VALIDATED
        self._count("txn.validated")
        return self

    def commit(self):
        if self.phase is TxnPhase.PENDING:
            self.prepare()
        if self.phase is TxnPhase.PREPARED:
            self.validate()
        self._require(TxnPhase.VALIDATED, "commit")
        result = self._flip_live()
        self.phase = TxnPhase.COMMITTED
        self._count("txn.committed")
        self._flight_record("txn_commit")
        return result

    def abort(self) -> None:
        """Discard the shadow state; idempotent; zero live mutation."""
        if self.phase is TxnPhase.COMMITTED:
            raise TxnStateError("cannot abort a committed transaction")
        if self.phase is TxnPhase.ABORTED:
            return
        self._drop_shadow()
        if self._timeline is not None and self._timeline.end is None:
            self._mark_phase("abort")
            self._timeline.finish()
        self.phase = TxnPhase.ABORTED
        self._count("txn.aborted")
        self._flight_record("txn_abort")

    # -- helpers -------------------------------------------------------

    def _require(self, expected: TxnPhase, verb: str) -> None:
        if self.phase is not expected:
            raise TxnStateError(
                f"cannot {verb} a {self.phase.value} transaction "
                f"(expected {expected.value})"
            )

    def _abort_on_failure(self, exc: Exception) -> None:
        self._drop_shadow()
        if self._timeline is not None and self._timeline.end is None:
            self._mark_phase("abort", error=type(exc).__name__)
            self._timeline.finish()
        self.phase = TxnPhase.ABORTED
        self._count("txn.aborted")
        self._flight_record("txn_abort", error=type(exc).__name__)

    def _mark_phase(self, name: str, **attrs):
        if self._timeline is not None:
            return self._timeline.phase(name, **attrs)
        return None

    def _count(self, name: str) -> None:
        metrics = getattr(self.switch, "metrics", None)
        if metrics is not None:
            metrics.counter(name).inc()

    def _flight_record(self, kind: str, **attrs: object) -> None:
        recorder = getattr(self.switch, "flight_recorder", None)
        if recorder is not None:
            recorder.record(kind, txn=self.txn_id, **attrs)

    def _observe_stall(self, seconds: float) -> None:
        metrics = getattr(self.switch, "metrics", None)
        if metrics is not None:
            metrics.histogram("txn.stall_seconds", TXN_STALL_BOUNDS).observe(
                seconds
            )

    # -- architecture hooks --------------------------------------------

    def _build_shadow(self) -> None:
        raise NotImplementedError

    def _prepare_attrs(self) -> Dict[str, object]:
        return {}

    def _check_shadow(self) -> None:
        raise NotImplementedError

    def _flip_live(self):
        raise NotImplementedError

    def _drop_shadow(self) -> None:
        raise NotImplementedError


class IpsaUpdateTransaction(_DeviceTransaction):
    """Transactional :meth:`IpsaSwitch.apply_update`.

    ``update`` is the rp4bc UpdatePlan JSON; the timeline label is
    ``apply_update``, with phases
    ``prepare/validate/serve/flip/resume/complete``.
    """

    def __init__(self, switch, update: dict) -> None:
        super().__init__(switch, "apply_update")
        self.update = update
        #: Optional pre-parsed template list ``[(index, side, stages,
        #: words), ...]`` shared by a fleet-wide plan cache: the
        #: parsed :class:`StageRuntime` objects are read-only after
        #: parse (TSPs rebind ``stages`` wholesale, never mutate the
        #: list), so content-identical peers skip re-parsing.
        self.shared_templates: Optional[List[tuple]] = None
        self._generation_at_prepare = -1
        self._shadow_plan = None
        self._stats = None

    # -- prepare -------------------------------------------------------

    def _build_shadow(self) -> None:
        from repro.ipsa.switch import (
            UpdateStats,
            ensure_instance,
            register_header,
            table_from_spec,
        )

        switch = self.switch
        update = self.update
        stats = UpdateStats()
        self._generation_at_prepare = switch.dp.generation

        metadata = dict(switch.metadata_defaults)
        for name, _width in update.get("new_metadata", []):
            metadata.setdefault(name, 0)

        header_types = dict(switch.header_types)
        linkage = switch.linkage.clone()
        for name, spec in update.get("new_headers", {}).items():
            register_header(header_types, linkage, name, spec)
        for pre, tag, nxt in update.get("link_headers", []):
            ensure_instance(header_types, linkage, nxt)
            linkage.add_link(pre, nxt, tag)
            stats.links_added += 1
        for pre, tag in update.get("unlink_headers", []):
            linkage.del_link(pre, tag)
            stats.links_removed += 1

        actions = dict(switch.actions)
        for name, spec in update.get("new_actions", {}).items():
            actions[name] = action_from_json(spec)

        tables = dict(switch.tables)
        for name, spec in update.get("new_tables", {}).items():
            tables[name] = table_from_spec(name, spec)
            stats.tables_created.append(name)
        for name in update.get("freed_tables", []):
            tables.pop(name, None)
            stats.tables_removed.append(name)

        # Template parsing happens HERE, outside any stall window.
        n_tsps = len(switch.pipeline.tsps)
        if self.shared_templates is not None:
            parsed = list(self.shared_templates)
            for index, _side, _stages, _words in parsed:
                if not 0 <= index < n_tsps:
                    raise PipelineError(
                        f"template targets unknown TSP {index}"
                    )
        else:
            parsed = []
            for template in update.get("templates", []):
                index = template["tsp"]
                if not 0 <= index < n_tsps:
                    raise PipelineError(
                        f"template targets unknown TSP {index}"
                    )
                stages = [
                    StageRuntime.from_json(s) for s in template["stages"]
                ]
                words = sum(s.template_words() for s in stages)
                parsed.append(
                    (index, template.get("side", "ingress"), stages, words)
                )
        stats.templates_written = len(parsed)
        stats.template_words = sum(words for *_rest, words in parsed)

        selector = SelectorConfig.from_json(update.get("selector", {}))

        # The shadow pipeline view: staged TSPs over the live TM.
        staged = {index: (side, stages) for index, side, stages, _ in parsed}
        shadow_tsps = []
        for tsp in switch.pipeline.tsps:
            side, stages = staged.get(tsp.index, (tsp.side, tsp.stages))
            if tsp.index not in selector.active:
                # A TSP the new selector no longer references drops
                # its template.
                stages = []
            state = (
                TspState.ACTIVE
                if tsp.index in selector.active and stages
                else TspState.BYPASSED
            )
            shadow_tsps.append(
                _ShadowTsp(tsp.index, side, stages, state, tsp.stats)
            )
        view_pipeline = ElasticPipeline.__new__(ElasticPipeline)
        view_pipeline.tsps = shadow_tsps
        view_pipeline.selector = selector
        view_pipeline.tm = switch.pipeline.tm
        view_pipeline.on_change = None

        view = SimpleNamespace(
            pipeline=view_pipeline,
            tables=tables,
            actions=actions,
            metadata_defaults=metadata,
            first_header=switch.first_header,
        )
        self._shadow_plan = switch.dp.compile_shadow(view)
        self._metadata = metadata
        self._header_types = header_types
        self._linkage = linkage
        self._actions = actions
        self._tables = tables
        self._parsed = parsed
        self._selector = selector
        self._view = view
        self._stats = stats

    def _prepare_attrs(self) -> Dict[str, object]:
        stats = self._stats
        return {
            "templates": stats.templates_written,
            "template_words": stats.template_words,
            "tables_created": list(stats.tables_created),
            "tables_removed": list(stats.tables_removed),
            "links_added": stats.links_added,
            "links_removed": stats.links_removed,
        }

    # -- validate ------------------------------------------------------

    def _check_shadow(self) -> None:
        try:
            self._selector.validate(len(self.switch.pipeline.tsps))
        except PipelineError as exc:
            self.findings.append(str(exc))
        plan = self._shadow_plan
        for tsp_plan in tuple(plan.ingress) + tuple(plan.egress):
            for stage in tsp_plan.stages:
                for arm in stage.arms:
                    if arm.table_name is not None and arm.table is None:
                        self.findings.append(
                            f"stage {stage.name!r} applies unknown table "
                            f"{arm.table_name!r}"
                        )
                pairs = list(stage.tag_actions.values()) + [stage.default_pair]
                for name, action in pairs:
                    if action is None:
                        self.findings.append(
                            f"stage {stage.name!r} runs unknown action "
                            f"{name!r}"
                        )

    # -- commit --------------------------------------------------------

    def _flip_live(self):
        switch = self.switch
        stats = self._stats
        # Live state moved since prepare (e.g. a concurrent table
        # repoint)?  Rebuild the shadow against the current snapshot --
        # still outside the stall window.
        if switch.dp.generation != self._generation_at_prepare:
            self._build_shadow()
        self._mark_phase(
            "serve", generation=switch.dp.generation
        )

        switch.paused = True  # back pressure: intake waits out the flip
        stats.held_packets = len(switch.rx_queue)
        # Retain the old-epoch plan: packets already in the TM entered
        # under it and will complete under it -- after the flip.
        old_plan = switch.dp.plan()

        # The flip itself: swap the live dictionaries, install the
        # pre-parsed templates, and advance the epoch pointer.  No
        # parsing, no compilation, no invalidation in this window.
        switch.metadata_defaults = self._metadata
        switch.header_types = self._header_types
        switch.linkage = self._linkage
        switch.actions = self._actions
        switch.tables = self._tables
        pipeline = switch.pipeline
        for index, side, stages, words in self._parsed:
            tsp = pipeline.tsps[index]
            tsp.side = side
            tsp.stages = stages
            tsp.stats.templates_written += 1
            tsp.stats.template_words_written += words
            tsp.state = TspState.ACTIVE
        for tsp in pipeline.tsps:
            if tsp.index in self._selector.active and tsp.stages:
                tsp.state = TspState.ACTIVE
            else:
                if tsp.stages:
                    tsp.clear()
                tsp.state = TspState.BYPASSED
        pipeline.selector = self._selector
        stats.epoch = switch.dp.flip(self._shadow_plan, "txn_commit")
        self._mark_phase(
            "flip",
            templates_written=stats.templates_written,
            template_words=stats.template_words,
            tables_created=list(stats.tables_created),
            tables_removed=list(stats.tables_removed),
            held_packets=stats.held_packets,
            epoch=stats.epoch,
        )

        switch.paused = False  # release back pressure
        self._mark_phase("resume", active_tsps=len(self._selector.active))

        # Old-epoch packets finish under the old plan, interleaved with
        # new-epoch intake -- this is delivery, not stall.
        stats.completed_packets = len(switch.quiesce(old_plan))
        stats.drained_packets = switch.drain()
        self._mark_phase(
            "complete",
            completed_packets=stats.completed_packets,
            drained_packets=stats.drained_packets,
        )
        timeline = self._timeline
        timeline.finish()
        durations = timeline.durations()
        stats.stall_seconds = (
            durations.get("flip", 0.0) + durations.get("resume", 0.0)
        )
        self._observe_stall(stats.stall_seconds)
        return stats

    def _drop_shadow(self) -> None:
        self._shadow_plan = None
        self._view = None
        for name in ("_metadata", "_header_types", "_linkage", "_actions",
                     "_tables", "_parsed", "_selector"):
            if hasattr(self, name):
                delattr(self, name)


class PisaReloadTransaction(_DeviceTransaction):
    """Transactional :meth:`PisaSwitch.reload`.

    PISA still cannot patch a running pipeline -- the whole
    configuration is rebuilt -- but the rebuild (parse, lower, table
    repopulation, plan compile) now happens against shadow objects
    while the old pipeline keeps forwarding; the swap itself is a
    pointer flip.  A failed reload leaves the old design serving.
    """

    def __init__(self, switch, program, entries: Optional[dict] = None) -> None:
        super().__init__(switch, "reload")
        self.program = program
        self.entries = entries or {}
        self._stats = None

    def _build_shadow(self) -> None:
        from repro.pisa.switch import ReloadStats, build_design
        from repro.tables.table import TableEntry

        switch = self.switch
        stats = ReloadStats()
        design = build_design(self.program, switch.n_stages)

        # Repopulate the controller's shadow entry copies into the
        # *staged* tables -- still zero live mutation.
        for table_name, rows in self.entries.items():
            table = design.tables.get(table_name)
            if table is None:
                continue
            for entry in rows:
                table.add_entry(
                    TableEntry(
                        key=entry.key,
                        action=entry.action,
                        action_data=dict(entry.action_data),
                        tag=entry.tag,
                        priority=entry.priority,
                    )
                )
                stats.entries_repopulated += 1
            stats.tables_repopulated += 1

        view = SimpleNamespace(**vars(design), deparser=switch.deparser)
        self._shadow_plan = switch.dp.compile_shadow(view)
        self._design = design
        self._stats = stats

    def _prepare_attrs(self) -> Dict[str, object]:
        stats = self._stats
        return {
            "tables": len(self._design.tables),
            "entries_repopulated": stats.entries_repopulated,
        }

    def _check_shadow(self) -> None:
        for table_name, rows in self.entries.items():
            table = self._design.tables.get(table_name)
            if table is None:
                continue  # PISA tolerates stale shadow-copy tables
            for entry in rows:
                if entry.action not in self._design.actions:
                    self.findings.append(
                        f"table {table_name!r} entry references unknown "
                        f"action {entry.action!r}"
                    )

    def _flip_live(self):
        switch = self.switch
        stats = self._stats
        self._mark_phase("serve")
        switch.install(self._design)
        switch.dp.flip(self._shadow_plan, "reload")
        flip = self._mark_phase(
            "flip",
            tables=stats.tables_repopulated,
            entries=stats.entries_repopulated,
        )
        timeline = self._timeline
        timeline.finish()
        stats.stall_seconds = flip.duration if flip is not None else 0.0
        stats.seconds = timeline.total_seconds
        self._observe_stall(stats.stall_seconds)
        return stats

    def _drop_shadow(self) -> None:
        self._shadow_plan = None
        self._design = None
