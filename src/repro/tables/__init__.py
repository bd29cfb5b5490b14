"""Match-action substrate: tables, match engines, and the action VM.

Both switch models execute the same table and action machinery; what
differs between PISA and IPSA is *where* tables live (per-stage SRAM
vs. the disaggregated pool) and *when* actions are bound to stages
(compile time vs. template download at runtime).
"""

from repro.tables.actions import (
    ActionContext,
    ActionDef,
    BinOp,
    Const,
    CountAndMark,
    FieldRef,
    HashExpr,
    Param,
    PyPrimitive,
    RemoveHeaderOp,
    SetField,
    evaluate,
)
from repro.tables.engines import (
    ExactEngine,
    HashEngine,
    LpmEngine,
    TernaryEngine,
)
from repro.tables.table import (
    KeyField,
    LookupResult,
    MatchKind,
    Table,
    TableEntry,
)

__all__ = [
    "ActionContext",
    "ActionDef",
    "BinOp",
    "Const",
    "CountAndMark",
    "ExactEngine",
    "FieldRef",
    "HashEngine",
    "HashExpr",
    "KeyField",
    "LookupResult",
    "LpmEngine",
    "MatchKind",
    "Param",
    "PyPrimitive",
    "RemoveHeaderOp",
    "SetField",
    "Table",
    "TableEntry",
    "TernaryEngine",
    "evaluate",
]
