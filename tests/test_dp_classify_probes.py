"""Learned signature probes in ``classify`` are exact.

``repro.dp.columnar.classify`` records, for each leaf its parse walk
closes, the checks that led there (each selector with its tag, each
varbit count with its value, the chain's byte extent).  On the next
batch those probes claim the rows that pass every check, and only the
rest walk the parse graph.  That must change nothing: on batches that
mix rows truncated below a probe's extent, flipped selector bytes, a
second tag value linked to the same next header, and INT hop counts
and SRH segment counts no probe has seen, ``classify`` with probes
returns the groups (keys, row arrays, order) and the peel list that
``classify`` without them does.  The probe list stays under its cap,
a committed update that links a new header starts from a fresh
program with no probes, and the device stays byte-identical to N
``inject`` calls.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.dp import columnar  # noqa: E402
from repro.net.headers import (  # noqa: E402
    INT_ETHERTYPE,
    INT_SHIM,
    int_pack_hop,
    standard_header_types,
)
from repro.net.linkage import standard_linkage  # noqa: E402
from repro.workloads import ipv4_packet, ipv6_packet, srv6_packet  # noqa: E402

UDPLITE = 136  # a second ipv4 tag linked to ``udp``

TYPES = dict(standard_header_types(), int_shim=INT_SHIM)
LINKAGE = standard_linkage()
LINKAGE.add_link("ipv4", "udp", UDPLITE)
LINKAGE.add_link("ipv6", "srh", 43)
LINKAGE.add_link("srh", "ipv6", 41)
LINKAGE.set_selector("int_shim", "orig_ethertype")
LINKAGE.add_link("ethernet", "int_shim", INT_ETHERTYPE)
LINKAGE.add_link("int_shim", "ipv4", 0x0800)
LINKAGE.add_link("int_shim", "ipv6", 0x86DD)

SELECTOR_BYTES = (12, 13, 23, 20)  # ethertype, ipv4 protocol, ipv6 next_hdr


def _int(data, hops):
    """``data`` wearing an INT shim and ``hops`` hop records."""
    stack = b"".join(
        int_pack_hop({"switch_id": j + 1, "ingress_ts": j, "egress_ts": j})
        for j in range(hops)
    )
    return (data[:12] + INT_ETHERTYPE.to_bytes(2, "big") + data[12:14]
            + bytes([hops]) + stack + data[14:])


def _srh(segments):
    """An SRv6 packet whose SRH carries ``segments`` entries."""
    data = srv6_packet("2001:db8:9::1", "2001:db8:100::1",
                       ["2001:db8:2::1", "2001:db8:100::1"])
    srh = bytes([41, 2 * segments, 4, segments - 1, segments - 1, 0, 0, 0])
    return data[:54] + srh + bytes(16 * segments) + data[94:]


def _udplite(data):
    return data[:23] + bytes([UDPLITE]) + data[24:]


def _packet(rng, depth):
    """One packet of the mix; ``depth`` bounds hop and segment counts."""
    v4 = ipv4_packet("10.1.0.1", f"10.2.0.{rng.randrange(256)}",
                     proto=rng.choice(["udp", "tcp"]))
    kind = rng.randrange(7)
    if kind == 0:
        return ipv6_packet("2001:db8:1::1", "2001:db8:2::5",
                           proto=rng.choice(["udp", "tcp"]))
    if kind == 1:
        return _int(v4, rng.randrange(depth + 1))
    if kind == 2:
        return _srh(rng.randint(1, depth + 1))
    if kind == 3:
        return _udplite(v4)
    return v4


def _mutate(rng, data):
    """Truncate, flip a selector byte, or flip any byte."""
    kind = rng.randrange(3)
    if kind == 0:
        return data[:rng.randrange(len(data))]
    at = rng.choice(SELECTOR_BYTES) if kind == 1 else rng.randrange(len(data))
    return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]


def _batch(rng, depth, rows=None):
    items = []
    for i in range(rows or rng.randint(8, 40)):
        data = _packet(rng, depth)
        if rng.random() < 0.3:
            data = _mutate(rng, data)
        items.append((data, i % 2))
    return items


def _walk(items, probes, linkage=LINKAGE):
    """What ``classify`` returns, as comparable lists."""
    mat, lengths, ports, groups, peel = columnar.classify(
        np, items, TYPES, linkage, "ethernet", probes
    )
    return (
        [(key, [rows.tolist() for rows in arrays])
         for key, (_chain, _terminal, arrays) in groups.items()],
        [rows.tolist() for rows in peel],
    )


def test_probes_leave_groups_order_and_peel_unchanged():
    rng = random.Random(42)
    probes = []
    for position in range(300):
        if position % 5 == 0:
            probes = []  # a fresh program: probes from the next batches
        items = _batch(rng, depth=1 + position // 60)
        assert _walk(items, probes) == _walk(items, None), position
        assert len(probes) <= columnar.MAX_PROBES


class _CountingLinkage:
    """The test linkage, counting the parse walk's selector look-ups."""

    def __init__(self):
        self.lookups = 0

    def selector(self, header):
        self.lookups += 1
        return LINKAGE.selector(header)

    def next_header(self, header, tag):
        return LINKAGE.next_header(header, tag)


def test_a_warm_batch_skips_the_walk():
    """Five leaves, one probe each: the second walk of the batch is
    all probes and no parse graph."""
    v4 = ipv4_packet("10.1.0.1", "10.2.0.1")
    kinds = [v4, ipv4_packet("10.1.0.1", "10.2.0.1", proto="tcp"),
             _udplite(v4), ipv6_packet("2001:db8:1::1", "2001:db8:2::5"),
             _int(v4, 2)]
    items = [(kinds[i % len(kinds)], 0) for i in range(64)]
    probes = []
    cold, warm = _CountingLinkage(), _CountingLinkage()
    want = _walk(items, probes, cold)
    assert len(probes) == len(kinds) and cold.lookups
    assert _walk(items, probes, warm) == want
    assert warm.lookups == 0


def test_probe_list_stays_under_its_cap():
    probes = []
    v4 = ipv4_packet("10.1.0.1", "10.2.0.1")
    for hops in range(256):
        items = [(_int(v4, hops), 0)] * 8 + [(v4, 1)]
        assert _walk(items, probes) == _walk(items, None), hops
    assert len(probes) == columnar.MAX_PROBES


def test_a_full_probe_list_learns_late_traffic():
    """Plain IPv4 and INT hop counts 0-6 fill the cap.  Hop count 9
    arrives later beside every other kind but hop count 6: it replaces
    the one probe that claimed no row of its batch, so the next such
    batch is all probes and no parse graph."""
    v4 = ipv4_packet("10.1.0.1", "10.2.0.1")
    probes = []
    for hops in range(7):
        items = [(_int(v4, hops), 0)] * 8 + [(v4, 1)]
        assert _walk(items, probes) == _walk(items, None), hops
    assert len(probes) == columnar.MAX_PROBES
    kinds = [9, 0, 1, 2, 3, 4, 5] * 2
    late = [(_int(v4, hops), i % 2) for i, hops in enumerate(kinds)] + [(v4, 0)]
    assert _walk(late, probes) == _walk(late, None)
    assert len(probes) == columnar.MAX_PROBES
    warm = _CountingLinkage()
    assert _walk(late, probes, warm) == _walk(late, None)
    assert warm.lookups == 0


def _c2_twins():
    """Two devices running the base design, which does not parse SRH."""
    from repro.bench.scenarios import make_ipsa_controller

    return make_ipsa_controller("base"), make_ipsa_controller("base")


def _wire(outputs):
    return [None if out is None else (out.port, out.data, out.to_cpu)
            for out in outputs]


def test_a_committed_header_link_starts_a_fresh_program():
    from repro.programs import (
        populate_srv6_tables,
        srv6_load_script,
        srv6_rp4_source,
    )

    rng = random.Random(11)
    batch, singles = _c2_twins()
    items = [
        (_srh(2) if i % 2 else _packet(rng, 0), i % 2) for i in range(32)
    ]
    want = [singles.switch.inject(d, p) for d, p in items]
    got = batch.switch.inject_batch(items)
    assert _wire(list(got)) == _wire(want)
    before = batch.switch.dp._columnar[1]
    assert before.probes  # ipv6 next_hdr 43 learned as a leaf
    for controller in (batch, singles):
        controller.run_script(
            srv6_load_script(), {"srv6.rp4": srv6_rp4_source()}
        )
        populate_srv6_tables(controller.switch.tables)
    cached = batch.switch.dp._columnar
    assert cached is None or cached[0] is not batch.switch.dp.plan()
    want = [singles.switch.inject(d, p) for d, p in items]
    got = batch.switch.inject_batch(items)
    assert _wire(list(got)) == _wire(want)
    after = batch.switch.dp._columnar[1]
    assert after is not before
    assert any(
        name == "srh" for probe in after.probes for name, _vbytes in probe[3][0][0]
    )


def _int_device(tick):
    from repro.obs.clock import ManualClock
    from repro.programs import (
        int_load_script,
        int_rp4_source,
        populate_int_tables,
    )
    from repro.bench.scenarios import make_ipsa_controller

    controller = make_ipsa_controller("base")
    controller.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
    populate_int_tables(controller.switch.tables, switch_id=2)
    controller.switch.enable_int(ManualClock(start=1.0, tick=tick))
    return controller.switch


def _int_batches():
    """Six 48-row batches of watched packets with 0..5 hop records, some
    with an unlinked IPv4 protocol or an unknown EtherType (frames a
    device parses without raising), hop counts growing batch by batch."""
    rng = random.Random(5)
    v4 = ipv4_packet("10.1.0.1", "10.2.0.1")
    gre = v4[:23] + bytes([47]) + v4[24:]
    unknown = v4[:12] + b"\x90\x00" + v4[14:]
    return [
        [(rng.choice([_int(v4, rng.randrange(depth)), _int(gre, depth - 1),
                      unknown, v4]), i % 2) for i in range(48)]
        for depth in range(1, 7)
    ]


def test_int_device_matches_singles_with_probes_warm():
    """Under a frozen INT clock the batched device, probes warm after
    the first batch, equals N ``inject`` calls on the wire."""
    batch, singles = _int_device(0.0), _int_device(0.0)
    for items in _int_batches():
        want = [singles.inject(d, p) for d, p in items]
        got = batch.inject_batch(items)
        assert _wire(list(got)) == _wire(want)
    assert batch.dp._columnar[1].probes


def test_group_order_is_the_walks_under_a_ticking_clock(monkeypatch):
    """Groups stamp INT egress times in group order: with a ticking
    clock, a device with probes and one that only walks (no probes
    learned) must still stamp every row alike."""
    batches = _int_batches()
    probed = _int_device(1e-6)
    got = [_wire(list(probed.inject_batch(items))) for items in batches]
    monkeypatch.setattr(columnar, "MAX_PROBES", 0)
    walked = _int_device(1e-6)
    want = [_wire(list(walked.inject_batch(items))) for items in batches]
    assert walked.dp._columnar[1].probes == []
    assert got == want
