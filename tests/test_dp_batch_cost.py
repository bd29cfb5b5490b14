"""The cost model of one columnar batch, pinned as call counts.

A TSP's cost is per packet through a fixed template, never per table
entry and never per flow (PAPER.md Sec. 2-3).  For the columnar path
that reads: one 256-row ``inject_batch`` does O(rows) NumPy work plus
a *fixed* number of Python-level calls -- whatever the size of the
tables it looks up in and however many distinct entries the rows hit.

Wall time cannot gate that (the box has 20% slow spells); the number
of Python + C calls can: it is deterministic, so the tests below
count them with ``sys.setprofile`` on the ``dev_l3_fast`` mix of
``perf/`` (70/30 IPv4/IPv6 to the routed networks, /18../30 routes
under 10.2/16) and print what they measured -- run with ``-rA`` to
read the counts off a green log.

Nor is the cost per prefix length: an LPM table's batch index paints
every prefix into disjoint key ranges, so one lookup is one
``searchsorted`` whether the table holds one prefix length or
thirteen.  The extra
routes all sit in 10.2.0.0/17 and every burst also carries rows for
10.2.128.0/17, which only the base design's /16 matches, so rows
resolve at every depth the table has.

The INT test pins the same model on an INT transit hop: the hop count
is part of the signature and ``push_int`` runs once per group, so a
burst whose packets carry three hop records costs exactly the calls of
one whose packets carry one.  The SRv6 test does the same for SRv6 End
on the ``dev_srv6_mix`` shape: whatever share of the SRH rows visit the
node's SID, the burst costs the same calls and peels no row.  The probe
test does it for C3's ``count_and_mark``: whatever share of the rows
belong to probed flows, the counting costs the same calls and peels no
row.  The line test pins a whole fabric burst: 64 packets through four
hops are one ``PacketBatch`` from ``send_many`` to the deliveries, so
the walker adds a per-burst fixed cost, not a per-hop re-listing.
"""

import random
import sys

import pytest

pytest.importorskip("numpy")

from repro.net.addresses import format_ipv4, parse_ipv4  # noqa: E402
from repro.programs import base_rp4_source, populate_base_tables  # noqa: E402
from repro.runtime import Controller  # noqa: E402
from repro.tables.table import TableEntry  # noqa: E402
from repro.workloads import ipv4_packet, ipv6_packet  # noqa: E402

BURST = 256
V4_ROWS = round(BURST * 0.7)
ROUTED_NET = parse_ipv4("10.2.0.0")
PREFIX_LENGTHS = range(18, 31)

#: Calls one burst may cost on the 2 048-route, many-flow mix: the
#: measured 1 617 (CPython 3.11, NumPy 2.4) + 15%.  The parent of the
#: per-action dispatch measured 4 764 on the same burst (4 094 with 16
#: routes, 3 930 with one flow per family), the parent of the
#: one-probe LPM index 2 779, the parent of the byte-window codec and
#: the learned classify probes 2 247, and the parent of ``PacketBatch``
#: (whose ragged matrix build made two calls per row) 2 160.
CALL_BUDGET = 1860

#: Calls one warm 256-row ``dev_srv6_mix`` burst may cost, whatever its
#: End:transit ratio: the measured 2 453 (CPython 3.11, NumPy 2.4) + 15%.
SRV6_CALL_BUDGET = 2821

#: Calls one warm 256-row burst through C3's flow probe may cost,
#: whatever its probed share: the measured 1 123 (CPython 3.11, NumPy
#: 2.4) + 15%.  Before the kernel every IPv4 row peeled.
PROBE_CALL_BUDGET = 1291


def _routes(count, lengths=PREFIX_LENGTHS):
    """``count`` distinct prefixes under 10.2.0.0/17, the first ones
    covering every length of ``lengths`` (a short list is a prefix of a
    longer one)."""
    rng = random.Random(23)
    routes = {}
    while len(routes) < count:
        if len(routes) < len(lengths):
            plen = lengths[len(routes)]
        else:
            plen = rng.choice(lengths)
        host = rng.getrandbits(15) >> (32 - plen) << (32 - plen)
        routes.setdefault((ROUTED_NET | host, plen), 1 + len(routes) % 3)
    return routes


def _switch(n_routes, lengths=PREFIX_LENGTHS):
    return _controller(n_routes, lengths).switch


def _controller(n_routes, lengths=PREFIX_LENGTHS):
    controller = Controller()
    controller.load_base(base_rp4_source())
    switch = controller.switch
    populate_base_tables(switch.tables)
    for (value, plen), nexthop in _routes(n_routes, lengths).items():
        switch.tables["ipv4_lpm"].add_entry(TableEntry(
            key=(1, (value, plen)), action="set_nexthop",
            action_data={"nexthop": nexthop}, tag=1,
        ))
    return controller


def _burst(v4_pool, v6_pool, seed=7):
    """One 256-packet burst at the 70/30 mix over the given
    destination pools, min-size frames, shuffled."""
    rng = random.Random(seed)
    items = [
        (ipv4_packet("10.1.0.1", format_ipv4(rng.choice(v4_pool)),
                     sport=1024 + i, payload=bytes(22)), i % 2)
        for i in range(V4_ROWS)
    ] + [
        (ipv6_packet("2001:db8:1::1", f"2001:db8:2::{rng.choice(v6_pool):x}",
                     sport=1024 + i, payload=bytes(2)), i % 2)
        for i in range(BURST - V4_ROWS)
    ]
    rng.shuffle(items)
    return items


def _many_flows():
    rng = random.Random(1024)
    return (
        [ROUTED_NET | rng.getrandbits(16) for _ in range(1024)],
        [rng.randrange(1, 1 << 16) for _ in range(1024)],
    )


def _count_calls(run):
    """Python + C calls of one ``run()``, and what it returned."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _calls_per_burst(switch, items):
    """Python + C calls of one warm ``inject_batch`` (the first two
    compile the signature plans and build the batch indexes)."""
    for _ in range(2):
        assert switch.inject_batch(items).forwarded == len(items)
    calls, result = _count_calls(lambda: switch.inject_batch(items))
    assert result.forwarded == len(items)
    assert switch.dp._columnar is not None  # it ran on the fast path
    return calls


def test_calls_do_not_grow_with_the_table():
    items = _burst(*_many_flows())
    small = _calls_per_burst(_switch(16), items)
    large = _calls_per_burst(_switch(2048), items)
    print(f"calls per {BURST}-row burst: {small} @ 16 routes, "
          f"{large} @ 2048 routes")
    assert abs(large - small) <= 0.02 * small


def test_calls_do_not_grow_with_the_flow_count():
    lone = ROUTED_NET | 0x8001  # in 10.2.128.0/17: resolves at the /16
    one = _calls_per_burst(_switch(2048), _burst([lone], [1]))
    many = _calls_per_burst(_switch(2048), _burst(*_many_flows()))
    print(f"calls per {BURST}-row burst: {one} @ 1 flow per family, "
          f"{many} @ 1024 flows per family")
    assert abs(many - one) <= 0.10 * one


def test_calls_do_not_grow_with_the_prefix_length_count():
    """2 048 extra routes in one prefix length (/30) or in thirteen
    (/18../30), on top of the base design's own: one probe either way."""
    items = _burst(*_many_flows())
    one = _calls_per_burst(_switch(2048, (30,)), items)
    thirteen = _calls_per_burst(_switch(2048), items)
    print(f"calls per {BURST}-row burst: {one} @ 1 extra prefix length, "
          f"{thirteen} @ 13")
    assert thirteen == one


def test_calls_stay_within_the_absolute_budget():
    calls = _calls_per_burst(_switch(2048), _burst(*_many_flows()))
    print(f"calls per {BURST}-row burst: {calls} @ 2048 routes, "
          f"1024 flows per family (budget {CALL_BUDGET})")
    assert calls <= CALL_BUDGET


INT_BURST = 64

#: Calls one warm 64-row INT transit burst may cost, whatever the hop
#: count: the measured 946 (CPython 3.11, NumPy 2.4) + 15%.
INT_CALL_BUDGET = 1088


def _int_transit(hops):
    """A base + ``int_insert`` device on a frozen INT clock, and a
    burst of watched packets that each already carry ``hops`` records
    (what the device sees as hop ``hops + 1`` of a fabric wave)."""
    from repro.net.headers import INT_ETHERTYPE, int_pack_hop
    from repro.obs.clock import ManualClock
    from repro.programs import (
        int_load_script,
        int_rp4_source,
        populate_int_tables,
    )

    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    controller.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
    populate_int_tables(controller.switch.tables, switch_id=hops + 1)
    controller.switch.enable_int(ManualClock(start=1.0))
    stack = b"".join(
        int_pack_hop({"switch_id": j + 1, "ingress_ts": j, "egress_ts": j})
        for j in range(hops)
    )
    items = []
    for i in range(INT_BURST):
        data = ipv4_packet("10.1.0.1", "10.2.0.1", sport=1024 + i)
        items.append((
            data[:12] + INT_ETHERTYPE.to_bytes(2, "big") + data[12:14]
            + bytes([hops]) + stack + data[14:],
            0,
        ))
    return controller.switch, items


def test_int_transit_calls_do_not_grow_with_the_hop_count():
    """An INT hop costs per group, not per record: the stack depth is a
    signature constant, so three records cost what one does."""
    one = _calls_per_burst(*_int_transit(1))
    three = _calls_per_burst(*_int_transit(3))
    print(f"calls per {INT_BURST}-row INT transit burst: {one} @ 1 hop, "
          f"{three} @ 3 hops (budget {INT_CALL_BUDGET})")
    assert three == one
    assert one <= INT_CALL_BUDGET


def _srv6_mix(end_share):
    """The ``dev_srv6_mix`` device (2 048 routes, C2 live) and a burst:
    half SRv6 -- ``end_share`` of it visiting our SID (End), the rest
    transit -- and half the plain L3 mix, shuffled."""
    from repro.programs import (
        populate_srv6_tables,
        srv6_load_script,
        srv6_rp4_source,
    )
    from repro.programs.srv6 import LOCAL_SIDS
    from repro.workloads import srv6_packet

    controller = _controller(2048)
    controller.run_script(srv6_load_script(), {"srv6.rp4": srv6_rp4_source()})
    populate_srv6_tables(controller.switch.tables)
    n_srv6 = BURST // 2
    n_end = round(n_srv6 * end_share)
    items = [
        (srv6_packet(
            src=f"2001:db8:9::{1 + i % 64:x}",
            active_sid=LOCAL_SIDS[0] if i < n_end else "2001:db8:1::77",
            segments=["2001:db8:2::1",
                      LOCAL_SIDS[0] if i < n_end else "2001:db8:1::77"],
        ), i % 2)
        for i in range(n_srv6)
    ] + _burst(*_many_flows())[:BURST - n_srv6]
    random.Random(36).shuffle(items)
    return controller.switch, items


def test_srv6_calls_do_not_depend_on_the_end_share(monkeypatch):
    """SRv6 End is one vector kernel: a burst peels no row, and a 1:3
    End:transit burst costs exactly the calls of a 3:1 one."""
    from repro.dp import frontdoor

    peeled = []
    scalar_rows = frontdoor.run_scalar_rows

    def spy(core, items, rows, outputs, stamps=None):
        peeled.extend(rows)
        return scalar_rows(core, items, rows, outputs, stamps)

    monkeypatch.setattr(frontdoor, "run_scalar_rows", spy)
    few = _calls_per_burst(*_srv6_mix(0.25))
    many = _calls_per_burst(*_srv6_mix(0.75))
    print(f"calls per {BURST}-row SRv6 mix burst: {few} @ 1:3 End:transit, "
          f"{many} @ 3:1 (budget {SRV6_CALL_BUDGET})")
    assert peeled == []
    assert many == few
    assert few <= SRV6_CALL_BUDGET


def _probe_mix(probed_share):
    """The 2 048-route device with C3 live, and a 256-row IPv4 burst:
    ``probed_share`` of it on the two probed flows (alternating), the
    rest on unprobed flows to the routed networks, shuffled."""
    from repro.programs import (
        flowprobe_load_script,
        flowprobe_rp4_source,
        populate_flowprobe_tables,
    )
    from repro.programs.flowprobe import PROBED_FLOWS

    controller = _controller(2048)
    controller.run_script(
        flowprobe_load_script(), {"flowprobe.rp4": flowprobe_rp4_source()}
    )
    populate_flowprobe_tables(controller.switch.tables)
    flows = sorted(PROBED_FLOWS)
    n_probed = round(BURST * probed_share)
    v4_pool = _many_flows()[0]
    items = [
        (ipv4_packet(*flows[i % 2], sport=1024 + i, payload=bytes(22)), i % 2)
        for i in range(n_probed)
    ] + [
        (ipv4_packet("10.1.0.9", format_ipv4(v4_pool[i]), sport=1024 + i,
                     payload=bytes(22)), i % 2)
        for i in range(BURST - n_probed)
    ]
    random.Random(37).shuffle(items)
    return controller.switch, items


def test_probe_calls_do_not_depend_on_the_probed_share(monkeypatch):
    """``count_and_mark`` is one vector kernel: a C3 burst peels no row,
    and one with 10% of its rows on probed flows costs exactly the calls
    of one with 60%."""
    from repro.dp import frontdoor

    peeled = []
    scalar_rows = frontdoor.run_scalar_rows

    def spy(core, items, rows, outputs, stamps=None):
        peeled.extend(rows)
        return scalar_rows(core, items, rows, outputs, stamps)

    monkeypatch.setattr(frontdoor, "run_scalar_rows", spy)
    few = _calls_per_burst(*_probe_mix(0.1))
    many = _calls_per_burst(*_probe_mix(0.6))
    print(f"calls per {BURST}-row C3 burst: {few} @ 10% probed, "
          f"{many} @ 60% (budget {PROBE_CALL_BUDGET})")
    assert peeled == []
    assert many == few
    assert few <= PROBE_CALL_BUDGET


LINE_BURST = 64

#: Calls one warm 64-packet burst through the 4-node line may cost, from
#: ``send_many`` at the first node to the deliveries at the last: the
#: measured 2 883 (CPython 3.11, NumPy 2.4) + 15%.  The parent of the
#: one-batch walker, which turned the packets back into ``bytes`` and
#: re-listed them at every hop, measured 5 496 on the same burst.
LINE_CALL_BUDGET = 3315


def test_line_burst_calls_stay_within_the_budget():
    """A fabric burst is one batch from ingress to exit: its calls are
    the four device hops plus a per-burst fixed cost, with no per-hop
    re-listing of the packets."""
    from tests.test_runtime_walk import LINE, flows, line_fabric

    fabric = line_fabric()
    trace = flows(LINE_BURST)
    for _ in range(2):
        assert all(d is not None for d in fabric.send_many(LINE[0], trace))
    calls, got = _count_calls(lambda: fabric.send_many(LINE[0], trace))
    assert all(d is not None and d.path == LINE for d in got)
    assert all(c.switch.dp._columnar is not None for c in fabric.nodes.values())
    print(f"calls per {LINE_BURST}-packet burst through the {len(LINE)}-node "
          f"line: {calls} (budget {LINE_CALL_BUDGET})")
    assert calls <= LINE_CALL_BUDGET
