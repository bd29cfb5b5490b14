"""``PacketBatch``: the one batch form from fabric ingress to exit.

A fabric's packets enter as ``bytes``, become one
:class:`~repro.dp.batch.PacketBatch`, and stay one from device to
device: a device takes a batch and hands back the batch of its
surviving rows, and the walker routes those rows by egress port.  The
checks here:

* ``from_frames`` / ``frames`` round-trip ragged, equal-length,
  single-row and empty batches, in the NumPy form and the list form,
  and ``take`` / ``split`` / ``merge`` mean the same in both;
* a device given a batch answers row for row what the ``(data, port)``
  list API answers -- and a frame too short for its parse raises the
  same error after the same device effects;
* the walker over batches equals ``tests/test_runtime_walk.py``'s
  per-packet reference on ragged IPv4 / IPv6 / SRv6 mixes with
  mid-path drops, loop cuts, several origins and a diamond, serial and
  on two shards;
* on a 4-hop INT line every hop record equals the one a hop-by-hop
  walk over the list API writes under a ticking clock, and the one N
  ``inject`` calls write under a frozen clock.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.batch import PacketBatch, _numpy
from repro.workloads import ipv4_packet, ipv6_packet, srv6_packet
from tests.test_runtime_walk import (
    LINE,
    PerPacketWalk,
    assert_matches_reference,
    device_effects,
    diamond_fabric,
    line_fabric,
    loop_fabric,
)

#: The two forms a batch takes; ``numpy`` only where NumPy is present.
FORMS = ["list"] + (["numpy"] if _numpy() is not None else [])


@contextmanager
def form(name):
    """Build batches in the ``name`` form (``list``: NumPy shut off)."""
    saved = os.environ.get("REPRO_FORCE_NO_NUMPY")
    os.environ["REPRO_FORCE_NO_NUMPY"] = "1" if name == "list" else "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_FORCE_NO_NUMPY"]
        else:
            os.environ["REPRO_FORCE_NO_NUMPY"] = saved


def _rows(batch):
    return list(zip(batch.tolist(), batch.frames(), batch.tolist("ports")))


frame_lists = st.one_of(
    st.lists(st.binary(max_size=40), max_size=12),  # ragged
    st.integers(0, 30).flatmap(  # equal length
        lambda size: st.lists(st.binary(min_size=size, max_size=size),
                              max_size=12)
    ),
    st.lists(st.binary(max_size=40), min_size=1, max_size=1),  # one row
    st.just([]),  # empty
)


@pytest.mark.parametrize("name", FORMS)
@given(frames=frame_lists, data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_from_frames_round_trips(name, frames, data):
    ports = data.draw(st.lists(st.integers(0, 1 << 20), min_size=len(frames),
                               max_size=len(frames)))
    with form(name):
        batch = PacketBatch.from_frames(frames, ports)
    assert (batch.np is None) == (name == "list")
    assert len(batch) == len(frames)
    assert batch.frames() == frames
    assert batch.tolist("ports") == ports
    assert batch.tolist() == list(range(len(frames)))
    assert batch.tolist("lengths") == [len(f) for f in frames]
    assert batch.pairs() == list(zip(frames, ports))
    if batch.np is not None:
        assert batch.mat.shape == (len(frames), max(map(len, frames), default=0))


@given(frames=st.lists(st.binary(max_size=24), min_size=1, max_size=10),
       data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_the_two_forms_agree(frames, data):
    """``take``, ``split``, ``at_port`` and ``merge`` keep their meaning
    whichever form backs the batch."""
    n = len(frames)
    ports = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    index = sorted(data.draw(st.sets(st.integers(0, 99), min_size=n,
                                     max_size=n)))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    cut = data.draw(st.integers(0, n))
    seen = []
    for name in FORMS:
        with form(name):
            batch = PacketBatch.from_frames(frames, ports, index)
            merged, origin = PacketBatch.merge([
                PacketBatch.from_frames(frames[cut:], ports[cut:], index[cut:]),
                PacketBatch.from_frames(frames[:cut], ports[:cut], index[:cut]),
            ] if 0 < cut < n else [batch])
        seen.append((
            _rows(batch.take(rows)),
            [(key, _rows(sub)) for key, sub in batch.split(batch.ports)],
            batch.at_port(7).tolist("ports"),
            _rows(merged),
            origin,
        ))
    assert all(got == seen[0] for got in seen)
    assert seen[0][3] == _rows(batch)  # merged back in index order
    assert [key for key, _sub in seen[0][1]] == list(dict.fromkeys(ports))


def _base_switch():
    from repro.programs import base_rp4_source, populate_base_tables
    from repro.runtime.controller import Controller

    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller.switch


def _effects(switch):
    return (switch.packets_in, switch.packets_out, switch.packets_dropped,
            dict(switch.drop_reasons))


def _mix(n, pad=0):
    """Ragged IPv4 / IPv6 / SRv6 traffic to the routed networks."""
    packets = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            data = ipv4_packet("10.1.0.1", f"10.2.0.{1 + i % 200}",
                               sport=2000 + i, payload=bytes(i % 7 + pad))
        elif kind == 1:
            data = ipv6_packet("2001:db8:1::1", f"2001:db8:2::{1 + i:x}",
                               sport=2000 + i, payload=bytes(i % 5 + pad))
        else:
            data = srv6_packet("2001:db8:9::1", "2001:db8:2::1",
                               ["2001:db8:2::1", "2001:db8:2::7"],
                               payload=bytes(i % 3 + pad))
        packets.append((data, i % 2))
    return packets


@pytest.mark.parametrize("name", FORMS)
def test_a_device_answers_a_batch_like_the_list_api(name):
    """Survivors keep their input ``index``; what was dropped is
    absent; bytes, ports and punts equal the list API's slots."""
    items = _mix(30)
    items[4] = (items[4][0], 42)  # no port_map entry: dropped
    listed, batched = _base_switch(), _base_switch()
    index = [10 * i for i in range(len(items))]
    with form(name):
        want = list(listed.inject_batch(items))
        packets = PacketBatch.from_frames(
            [d for d, _p in items], [p for _d, p in items], index
        )
        out = batched.inject_batch(packets)
    assert isinstance(out, PacketBatch)
    assert list(zip(out.tolist(), out.frames(), out.tolist("ports"),
                    out.tolist("to_cpu"))) == [
        (index[i], slot.data, slot.port, slot.to_cpu)
        for i, slot in enumerate(want) if slot is not None
    ]
    assert want[4] is None
    assert _effects(batched) == _effects(listed)


@pytest.mark.parametrize("name", FORMS)
def test_a_frame_too_short_raises_where_the_list_api_does(name):
    items = _mix(20)
    items[9] = (items[9][0][:20], 0)  # Ethernet, then a cut IPv4 header
    errors, effects = [], []
    for batched in (False, True):
        switch = _base_switch()
        with form(name), pytest.raises(Exception) as raised:
            if batched:
                switch.inject_batch(PacketBatch.from_frames(
                    [d for d, _p in items], [p for _d, p in items]
                ))
            else:
                switch.inject_batch(items)
        errors.append((type(raised.value), str(raised.value)))
        effects.append(_effects(switch))
    assert errors[0] == errors[1]
    assert effects[0] == effects[1]


# -- the walker over batches ----------------------------------------------


TOPOLOGIES = {
    "line": (line_fabric, LINE[:3]),
    "loop": (loop_fabric, ("A", "B")),
    "diamond": (diamond_fabric, ("A",)),
}


@st.composite
def walks(draw):
    """A topology and a ragged mix on it: some rows with a TTL that
    runs out partway, some on an ingress port no table knows, origins
    drawn from the topology's entry nodes."""
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    origins = TOPOLOGIES[topology][1]
    n = draw(st.integers(1, 40))
    items = []
    for i, (data, port) in enumerate(_mix(n, pad=draw(st.integers(0, 40)))):
        if data[12:14] == b"\x08\x00" and draw(st.integers(0, 5)) == 0:
            data = ipv4_packet("10.1.0.1", "10.2.0.9", sport=i, ttl=2)
        if draw(st.integers(0, 9)) == 0:
            port = 42
        items.append((draw(st.sampled_from(origins)), data, port))
    return topology, items


@pytest.mark.parametrize("shards", [0, 2], ids=["serial", "sharded"])
@given(case=walks())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_the_walker_equals_the_per_packet_reference(shards, case):
    topology, items = case
    assert_matches_reference(TOPOLOGIES[topology][0], items, shards)


def test_one_waves_exits_reach_the_collector_in_index_order():
    """Exits from several legs in one wave -- here every origin's first
    hop, out of two nodes -- merge in ascending index before the
    collector sees them."""
    from tests.test_runtime_walk import RecordingCollector, flows

    fabric = line_fabric()
    collector = fabric.attach_int_collector(RecordingCollector())
    trace = flows(12, dst="10.1.0.{}")
    got = fabric.send_batch(
        [(LINE[i % 2], data, port) for i, (data, port) in enumerate(trace)]
    )
    assert [(d.node, d.hops) for d in got] == [("sw0", 1), ("sw1", 1)] * 6
    assert collector.seen == [d.data for d in got]


def _int_line(clock):
    from repro.bench.scenarios import make_int_fabric

    fabric, collector = make_int_fabric(n_nodes=4, clock=clock, strip="edge")
    return fabric, collector


def _list_api_walk(fabric, trace):
    """The reference for stamps: a hop-synchronous walk down the line
    that hands every hop the ``(data, port)`` list, one
    ``inject_batch`` per hop, as the walker did before batches."""
    names = [f"sw{i}" for i in range(4)]
    rows = list(enumerate(trace))
    for name in names:
        outs = fabric.node(name).switch.inject_batch([item for _i, item in rows])
        rows = [(i, (out.data, 0)) for (i, _item), out in zip(rows, outs)
                if out is not None]
    return {i: data for i, (data, _port) in rows}


@pytest.mark.parametrize("tick", [1e-6, 0.0], ids=["ticking", "frozen"])
def test_int_line_stamps_match(tick):
    """Every hop record -- ingress and egress stamps included -- equals
    the list API's hop-by-hop walk under a ticking clock; under a frozen
    clock it also equals N ``inject`` calls.  (Under a ticking clock a
    batch reads every ingress stamp before any egress stamp, which N
    interleaved ``inject`` calls do not.)"""
    from repro.obs.clock import ManualClock

    trace = [
        (ipv4_packet("10.1.0.1", "10.2.0.1", sport=1024 + i,
                     payload=bytes(i % 9)), 0)
        for i in range(24)
    ]
    fabric, collector = _int_line(ManualClock(start=1.0, tick=tick))
    fabric._int_strip = False  # keep the records on the wire
    got = fabric.send_many("sw0", trace)
    reference, _collector = _int_line(ManualClock(start=1.0, tick=tick))
    want = _list_api_walk(reference, trace)
    assert [d.data for d in got] == [want[i] for i in range(len(trace))]
    assert all(d.path == tuple(f"sw{i}" for i in range(4)) for d in got)
    assert len(collector.records) == len(trace)
    if tick == 0.0:
        singles, _collector = _int_line(ManualClock(start=1.0))
        walk = PerPacketWalk(singles)
        per_packet = walk.send_batch([("sw0", d, p) for d, p in trace])
        assert [d.data for d in got] == [d.data for d in per_packet]
        assert device_effects(fabric) == device_effects(singles)
