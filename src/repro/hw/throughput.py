"""Cycle-level throughput model (reproduces Sec. 5's Mpps numbers).

Both prototypes run at 200 MHz and are pipelined, so throughput is
the clock divided by the *bottleneck* cycles per packet:

* **PISA** -- stages are single-cycle; the bottleneck is the front
  parser when the header stack exceeds its per-cycle extraction
  width (why the SRv6 case is the slowest).
* **IPSA** -- the bottleneck TSP pays (a) the per-packet template
  parameter load, (b) one cycle per JIT-parsed header, and (c)
  ``ceil(entry_width / bus_width)`` memory-pool accesses per lookup --
  exactly the two penalties Sec. 5 names ("memory access, especially
  when the table entry size exceeds the data bus width, and the extra
  time for loading the per-packet configuration parameters").

Models run on the *behavioral switches*, so cycles are charged to the
lookups and parses that actually happen for each trace packet.  The
report also carries the measured software packets/sec for the
bmv2-vs-ipbm style comparison.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.rp4bc import CompiledDesign
from repro.hw.calibration import IPSA_CAL, PISA_CAL, HwCalibration
from repro.ipsa.switch import IpsaSwitch
from repro.net.packet import Packet
from repro.obs.clock import Clock, MONOTONIC
from repro.pisa.switch import PisaSwitch

Trace = List[Tuple[bytes, int]]


@dataclass
class ThroughputReport:
    """Model + measurement for one architecture on one trace."""

    architecture: str
    packets: int = 0
    cycles_per_packet: float = 0.0
    model_mpps: float = 0.0
    software_pps: float = 0.0
    forwarded: int = 0
    dropped: int = 0


class _TspMeter:
    """Collects per-TSP parse/lookup events for one packet."""

    def __init__(self) -> None:
        self.parses: Dict[int, int] = defaultdict(int)
        self.lookups: Dict[int, List[str]] = defaultdict(list)

    def parsed(self, tsp_index: int, count: int) -> None:
        self.parses[tsp_index] += count

    def lookup(self, tsp_index: int, table: str) -> None:
        self.lookups[tsp_index].append(table)


def ipsa_throughput(
    switch: IpsaSwitch,
    design: CompiledDesign,
    trace: Trace,
    cal: Optional[HwCalibration] = None,
    clock: Optional[Clock] = None,
) -> ThroughputReport:
    """Run the trace through ipbm, pricing the bottleneck TSP."""
    cal = cal or IPSA_CAL
    clock = clock or MONOTONIC
    report = ThroughputReport(architecture="IPSA", packets=len(trace))
    entry_widths = {
        name: layout.entry_width for name, layout in design.table_layouts.items()
    }
    total_bottleneck = 0.0
    started = clock.now()
    for data, port in trace:
        meter = _TspMeter()
        out = switch.inject(data, port, meter=meter)
        if out is None:
            report.dropped += 1
        else:
            report.forwarded += 1
        bottleneck = 1.0
        touched = set(meter.parses) | set(meter.lookups)
        for tsp in touched:
            cycles = float(cal.tsp_config_cycles)
            cycles += meter.parses.get(tsp, 0)  # one cycle per JIT header
            for table in meter.lookups.get(tsp, []):
                width = entry_widths.get(table, cal.mem_bus_bits)
                cycles += max(1, math.ceil(width / cal.mem_bus_bits))
            bottleneck = max(bottleneck, cycles)
        total_bottleneck += bottleneck
    elapsed = clock.now() - started
    report.cycles_per_packet = total_bottleneck / max(1, len(trace))
    report.model_mpps = cal.clock_mhz / report.cycles_per_packet
    report.software_pps = len(trace) / elapsed if elapsed > 0 else 0.0
    return report


def pisa_throughput(
    switch: PisaSwitch,
    trace: Trace,
    cal: Optional[HwCalibration] = None,
    clock: Optional[Clock] = None,
) -> ThroughputReport:
    """Run the trace through the PISA model, pricing the front parser."""
    cal = cal or PISA_CAL
    clock = clock or MONOTONIC
    if switch.parser is None:
        raise RuntimeError("switch has no design loaded")
    report = ThroughputReport(architecture="PISA", packets=len(trace))
    total_cycles = 0.0
    started = clock.now()
    for data, port in trace:
        # Pre-measure the parse depth the front parser must extract.
        probe = Packet(data, first_header=switch.first_header)
        probe.parse_all(switch.header_types, switch.linkage)
        stack_bits = probe.cursor_bits
        parse_cycles = max(1, math.ceil(stack_bits / cal.parser_bus_bits))
        total_cycles += float(parse_cycles)

        out = switch.inject(data, port)
        if out is None:
            report.dropped += 1
        else:
            report.forwarded += 1
    elapsed = clock.now() - started
    report.cycles_per_packet = total_cycles / max(1, len(trace))
    report.model_mpps = cal.clock_mhz / report.cycles_per_packet
    report.software_pps = len(trace) / elapsed if elapsed > 0 else 0.0
    return report
