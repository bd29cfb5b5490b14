"""The scenario builders shared by the CLI's ``profile`` / ``int``
subcommands, the soak, the parity tests and the evaluation benchmarks.

A *scenario* is (switch architecture, use case): the IPSA device with
the base L2/L3 design plus (optionally) one in-situ-loaded use case,
or the PISA baseline running the equivalent monolithic P4 variant --
the same pairing the paper's Sec. 5 evaluation measures.  Each case
also names its natural traffic shape (``case_trace``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ipsa.switch import IpsaSwitch
from repro.pisa.switch import PisaSwitch
from repro.programs import (
    base_p4_source,
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
    flowprobe_load_script,
    flowprobe_rp4_source,
    populate_base_tables,
    populate_ecmp_tables,
    populate_flowprobe_tables,
    populate_srv6_tables,
    srv6_load_script,
    srv6_rp4_source,
)
from repro.programs.p4_variants import (
    ecmp_p4_source,
    flowprobe_p4_source,
    srv6_p4_source,
)
from repro.runtime.controller import Controller
from repro.workloads import mixed_l3_trace, use_case_trace  # NumPy-gated

Trace = List[Tuple[bytes, int]]

#: The base design plus the paper's three runtime-loaded use cases.
CASES = ("base", "C1", "C2", "C3")
SWITCHES = ("ipsa", "pisa")

#: case -> (load script, rp4 snippet, snippet name, populate, p4 variant)
CASE_ARTIFACTS = {
    "C1": (
        ecmp_load_script,
        ecmp_rp4_source,
        "ecmp.rp4",
        populate_ecmp_tables,
        ecmp_p4_source,
    ),
    "C2": (
        srv6_load_script,
        srv6_rp4_source,
        "srv6.rp4",
        populate_srv6_tables,
        srv6_p4_source,
    ),
    "C3": (
        flowprobe_load_script,
        flowprobe_rp4_source,
        "flowprobe.rp4",
        populate_flowprobe_tables,
        flowprobe_p4_source,
    ),
}


def check_case(case: str) -> str:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r} (expected one of {CASES})")
    return case


def make_ipsa_controller(case: str = "base") -> Controller:
    """A controller driving an IPSA device with the base design
    (plus ``case`` loaded in-situ)."""
    check_case(case)
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    if case != "base":
        script, snippet, name, populate, _ = CASE_ARTIFACTS[case]
        controller.run_script(script(), {name: snippet()})
        populate(controller.switch.tables)
    return controller


def make_ipsa(case: str = "base") -> IpsaSwitch:
    """An IPSA device with the base design (plus ``case`` live)."""
    return make_ipsa_controller(case).switch


def make_pisa(case: str = "base") -> PisaSwitch:
    """A PISA device running the equivalent full P4 program."""
    check_case(case)
    switch = PisaSwitch(n_stages=8)
    if case == "base":
        switch.load(base_p4_source())
        populate_base_tables(switch.tables)
    else:
        _, _, _, populate, p4_variant = CASE_ARTIFACTS[case]
        switch.load(p4_variant())
        populate_base_tables(switch.tables)
        populate(switch.tables)
    return switch


def make_switch(arch: str, case: str = "base"):
    if arch == "ipsa":
        return make_ipsa(case)
    if arch == "pisa":
        return make_pisa(case)
    raise ValueError(f"unknown switch {arch!r} (expected ipsa or pisa)")


def case_trace(case: str, n_packets: int, seed: int = 23) -> Trace:
    """The traffic shape that exercises a case's hot path."""
    check_case(case)
    if case == "base":
        return mixed_l3_trace(n_packets, seed=seed)
    return use_case_trace(case, n_packets, seed=seed)


# -- INT scenarios ---------------------------------------------------------

#: Where the INT stack is stripped: at the fabric edge (the delivery
#: hook, all nodes on equal epochs) or by a dataplane ``int_strip``
#: function on the last node.
INT_STRIP_MODES = ("edge", "sink")


def make_int_fabric(n_nodes: int = 3, clock=None, strip: str = "edge"):
    """A line fabric ``sw0 - sw1 - ... - sw{n-1}`` with multi-hop INT.

    Every node runs the base design plus ``int_insert`` (switch id
    ``i + 1``), sharing one INT ``clock`` so hop timestamps are
    comparable across the path.  Transit nodes repoint next hop 2 at
    the router MAC so the watched flow keeps routing hop over hop (the
    ``two_node_fabric`` idiom).  Returns ``(fabric, collector)`` with
    the collector attached per ``strip``:

    * ``"edge"`` -- the fabric delivery hook ingests and strips;
    * ``"sink"`` -- the last node loads ``int_strip``/``int_sink`` and
      its ``pop_int`` feeds the collector device-side.
    """
    from repro.net.addresses import parse_mac
    from repro.obs.intcol import IntCollector
    from repro.programs import (
        int_load_script,
        int_rp4_source,
        int_strip_load_script,
        int_strip_rp4_source,
        populate_int_sink_tables,
        populate_int_tables,
    )
    from repro.programs.base_l2l3 import ROUTER_MAC
    from repro.runtime.fabric import Fabric
    from repro.tables.table import TableEntry

    if n_nodes < 2:
        raise ValueError("an INT fabric needs at least 2 nodes")
    if strip not in INT_STRIP_MODES:
        raise ValueError(
            f"unknown strip mode {strip!r} (expected one of {INT_STRIP_MODES})"
        )
    fabric = Fabric()
    names = [f"sw{i}" for i in range(n_nodes)]
    for name in names:
        fabric.add_node(name, make_ipsa_controller("base"))
    for left, right in zip(names, names[1:]):
        fabric.wire(left, 3, right, 0)

    for index, name in enumerate(names):
        controller = fabric.node(name)
        if index < n_nodes - 1:
            # Route the watched flow onto the wire: next hop 2 resolves
            # to the peer's router MAC out port 3.
            nexthop = controller.switch.table("nexthop")
            old = next(e for e in nexthop.entries() if e.key == (2,))
            nexthop.remove_entry(old)
            nexthop.add_entry(
                TableEntry(
                    key=(2,),
                    action="set_bd_dmac",
                    action_data={"bd": 2, "dmac": parse_mac(ROUTER_MAC)},
                    tag=1,
                )
            )
            controller.switch.table("dmac").add_entry(
                TableEntry(
                    key=(2, parse_mac(ROUTER_MAC)),
                    action="set_egress_port",
                    action_data={"port": 3},
                    tag=1,
                )
            )
        controller.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
        populate_int_tables(controller.switch.tables, switch_id=index + 1)
        controller.switch.enable_int(clock)

    if strip == "sink":
        sink = fabric.node(names[-1])
        sink.run_script(
            int_strip_load_script(), {"int_strip.rp4": int_strip_rp4_source()}
        )
        populate_int_sink_tables(sink.switch.tables)
        collector = IntCollector()
        sink.switch.attach_int_collector(collector, node=names[-1])
    else:
        collector = fabric.attach_int_collector()
    return fabric, collector


# -- fleet scenario ----------------------------------------------------------


def make_fleet(n_nodes: int, populate: bool = True):
    """``n_nodes`` isolated base-design devices in one fabric.

    The base source is compiled once and the same design loaded
    everywhere (:meth:`Controller.load_design`), so fleet build time
    is dominated by the per-node download -- the only part that
    genuinely repeats per device.
    """
    from repro.compiler.rp4bc import compile_base
    from repro.runtime.fabric import Fabric

    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    fabric = Fabric()
    controller = Controller()
    design = compile_base(base_rp4_source(), controller.target)
    controller.load_design(design)
    if populate:
        populate_base_tables(controller.switch.tables)
    fabric.add_node("n0", controller)
    for index in range(1, n_nodes):
        controller = Controller()
        controller.load_design(design)
        if populate:
            populate_base_tables(controller.switch.tables)
        fabric.add_node(f"n{index}", controller)
    return fabric
