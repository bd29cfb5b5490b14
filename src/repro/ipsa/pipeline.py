"""The elastic pipeline and its selector (paper Sec. 2.3).

All TSPs are chained; the selector picks which TSP feeds the TM
(ingress end) and which receives TM output (egress start), so the
ingress/egress split is a runtime configuration, not a silicon
property.  Bypassed TSPs are skipped and kept in a low-power state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.ipsa.tm import TrafficManager
from repro.ipsa.tsp import Tsp, TspState


class PipelineError(Exception):
    """Raised on inconsistent selector configuration."""


@dataclass
class SelectorConfig:
    """Which TSPs are active and where the TM boundary sits."""

    tm_input: Optional[int] = None  # last ingress TSP
    tm_output: Optional[int] = None  # first egress TSP
    active: Set[int] = field(default_factory=set)

    @classmethod
    def from_json(cls, data: dict) -> "SelectorConfig":
        return cls(
            tm_input=data.get("tm_input"),
            tm_output=data.get("tm_output"),
            active=set(data.get("active", [])),
        )

    def validate(self, n_tsps: int) -> None:
        for index in self.active:
            if not 0 <= index < n_tsps:
                raise PipelineError(f"active TSP {index} out of range")
        if (
            self.tm_input is not None
            and self.tm_output is not None
            and self.tm_input >= self.tm_output
        ):
            raise PipelineError(
                f"TM input {self.tm_input} must precede TM output {self.tm_output}"
            )


class ElasticPipeline:
    """The TSP chain + selector + TM."""

    def __init__(self, n_tsps: int = 8, tm: Optional[TrafficManager] = None) -> None:
        if n_tsps <= 0:
            raise ValueError("n_tsps must be positive")
        self.tsps = [Tsp(i) for i in range(n_tsps)]
        self.selector = SelectorConfig()
        self.tm = tm or TrafficManager()
        #: Invalidation callback (reason str) installed by the owning
        #: switch: template writes and selector moves must drop the
        #: device's compiled stage plans (repro.dp cache coherence).
        self.on_change = None

    def __len__(self) -> int:
        return len(self.tsps)

    def _changed(self, reason: str) -> None:
        callback = self.on_change
        if callback is not None:
            callback(reason)

    def configure_selector(self, selector: SelectorConfig) -> None:
        selector.validate(len(self.tsps))
        self.selector = selector
        for tsp in self.tsps:
            if tsp.index in selector.active and tsp.stages:
                tsp.state = TspState.ACTIVE
            else:
                tsp.state = TspState.BYPASSED
        self._changed("selector")

    def ingress_tsps(self) -> List[Tsp]:
        if self.selector.tm_input is None:
            return []
        return [
            t
            for t in self.tsps[: self.selector.tm_input + 1]
            if t.active and t.side == "ingress"
        ]

    def egress_tsps(self) -> List[Tsp]:
        if self.selector.tm_output is None:
            return []
        return [
            t
            for t in self.tsps[self.selector.tm_output :]
            if t.active and t.side == "egress"
        ]

    def active_tsps(self) -> List[Tsp]:
        return [t for t in self.tsps if t.active]

    def write_templates(self, templates: List[dict]) -> int:
        """Download templates into their TSPs; returns words written."""
        words = 0
        for template in templates:
            index = template["tsp"]
            if not 0 <= index < len(self.tsps):
                raise PipelineError(f"template targets unknown TSP {index}")
            words += self.tsps[index].write_template(template)
        if templates:
            self._changed("template_write")
        return words
