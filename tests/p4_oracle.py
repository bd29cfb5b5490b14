"""A reference interpreter for the P4 subset (test-only).

``PisaSwitch`` runs its program as rp4fc stages on the stage-plan
executor it shares with IPSA.  This module keeps an independent
statement of what a P4 control flow means, so checking P4 against rP4
does not rest on that executor:

* the front-end parser extracts the whole header stack up front;
* an ``if`` is evaluated once, when the flow reaches it;
* a dropped packet skips every later statement of the flow;
* an applied table dispatches by the *action name* its entry (or, on
  a miss, its default) names -- an unknown name raises ``KeyError``;
* ingress, then egress, then the deparser (no traffic manager).

Tables, actions and the parser are lowered from the HLIR with the
compiler's own lowering, so entries populate them exactly as they
populate a ``PisaSwitch``'s tables.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.compiler.lowering import (
    builtin_actions,
    compile_predicate,
    lower_action,
    lower_table,
)
from repro.lang.expr import SApply, SIf
from repro.net.packet import INTRINSIC_METADATA, Packet
from repro.p4 import build_hlir, parse_p4
from repro.pisa.parser import FrontEndParser


class OracleOut(NamedTuple):
    """One packet's fate: ``port``/``data`` when it leaves, else the
    drop reason (``"ingress_action"`` or ``"egress_action"``)."""

    port: Optional[int]
    data: Optional[bytes]
    to_cpu: bool
    drop_reason: Optional[str]


class P4Oracle:
    """Interpret one P4 program's HLIR control flow packet by packet."""

    def __init__(self, source: str) -> None:
        self.hlir = hlir = build_hlir(parse_p4(source))
        self.parser = FrontEndParser(hlir)
        self.actions = builtin_actions()
        for name, action in hlir.actions.items():
            self.actions[name] = lower_action(action)
        self.tables = {
            name: lower_table(
                name, list(table.keys), table.size,
                default_action=table.default_action,
            )
            for name, table in hlir.tables.items()
        }
        self.metadata: Dict[str, object] = {n: 0 for n, _ in hlir.metadata}
        self.metadata.update(INTRINSIC_METADATA)
        self._predicates: Dict[int, object] = {}

    def inject(self, data: bytes, port: int = 0) -> OracleOut:
        metadata = dict(self.metadata)
        metadata["ingress_port"] = port
        metadata["packet_length"] = len(data)
        packet = Packet(
            data, first_header=self.parser.first_header, metadata=metadata
        )
        self.parser.parse(packet)
        hlir = self.hlir
        for flow, reason in (
            (hlir.ingress_flow, "ingress_action"),
            (hlir.egress_flow, "egress_action"),
        ):
            self._run(flow, packet)
            if metadata.get("drop"):
                return OracleOut(None, None, False, reason)
        return OracleOut(
            int(metadata.get("egress_spec", 0)),  # type: ignore[arg-type]
            packet.emit(),
            bool(metadata.get("to_cpu")),
            None,
        )

    def _run(self, flow, packet: Packet) -> None:
        for stmt in flow:
            if packet.metadata.get("drop"):
                return
            if isinstance(stmt, SApply):
                result = self.tables[stmt.table].lookup(packet)
                action = self.actions.get(result.action)
                if action is None:
                    raise KeyError(
                        f"table {stmt.table!r} selected unknown action "
                        f"{result.action!r}"
                    )
                action.execute(
                    packet, result.action_data, entry=result.entry, device=None
                )
            elif isinstance(stmt, SIf):
                predicate = self._predicates.get(id(stmt))
                if predicate is None:
                    predicate = compile_predicate(stmt.cond)
                    self._predicates[id(stmt)] = predicate
                branch = stmt.then_body if predicate(packet) else stmt.else_body
                self._run(branch, packet)
            else:
                raise TypeError(f"unsupported flow statement {stmt!r}")
