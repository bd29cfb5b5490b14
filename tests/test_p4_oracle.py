"""PisaSwitch against the reference P4 interpreter (tests/p4_oracle.py).

``PisaSwitch`` executes rp4fc's stages on the shared stage-plan
executor; the oracle interprets the P4 control flow directly.  On the
base design and every shipped use-case variant they must agree packet
for packet -- bytes, port, drop reason -- and leave the same per-entry
``hits`` and ``counter`` state, for ``inject`` and ``inject_batch``.
"""

from collections import Counter

import pytest

from repro.bench.scenarios import CASE_ARTIFACTS, make_pisa
from repro.programs import base_p4_source
from repro.programs.base_l2l3 import populate_base_tables
from repro.workloads import ipv4_packet, mixed_l3_trace, use_case_trace
from tests.p4_oracle import P4Oracle

N_PACKETS = 200


def _oracle(case):
    source = base_p4_source() if case == "base" else CASE_ARTIFACTS[case][4]()
    oracle = P4Oracle(source)
    populate_base_tables(oracle.tables)
    if case != "base":
        CASE_ARTIFACTS[case][3](oracle.tables)
    return oracle


#: Interleaved into every trace: a ``port_map`` miss (ingress drop)
#: and an L2 frame to an unknown MAC (``dmac`` miss: egress drop).
DROPS = (
    (ipv4_packet("10.1.0.1", "10.2.0.5"), 42),
    (ipv4_packet("10.1.0.1", "10.2.0.5", dst_mac="02:00:00:00:99:99"), 0),
)


def _trace(case):
    if case == "base":
        trace = mixed_l3_trace(N_PACKETS, seed=31)
    else:
        trace = use_case_trace(case, N_PACKETS, seed=31)
    return [
        row
        for index, packet in enumerate(trace)
        for row in ((packet, DROPS[index % 20 // 10]) if index % 10 == 0
                    else (packet,))
    ]


def _fates(oracle, trace):
    """Per packet: the wire tuple (``None`` when dropped) and the drop
    reason (``None`` when forwarded)."""
    outs = [oracle.inject(data, port) for data, port in trace]
    return [
        (None if out.drop_reason else (out.port, out.data, out.to_cpu),
         out.drop_reason)
        for out in outs
    ]


def _wire(out):
    return None if out is None else (out.port, out.data, out.to_cpu)


def _entry_state(tables):
    return {
        name: sorted(
            (repr(e.key), e.action, e.hits, e.counter) for e in table.entries()
        )
        for name, table in tables.items()
    }


@pytest.mark.parametrize("case", ("base", "C1", "C2", "C3"))
def test_inject_matches_oracle(case):
    trace = _trace(case)
    oracle = _oracle(case)
    fates = _fates(oracle, trace)
    switch = make_pisa(case)
    for (data, port), (wire, reason) in zip(trace, fates):
        before = Counter(switch.drop_reasons)
        assert _wire(switch.inject(data, port)) == wire
        dropped = Counter(switch.drop_reasons) - before
        assert dropped == (Counter([reason]) if reason else Counter())
    assert _entry_state(switch.tables) == _entry_state(oracle.tables)


@pytest.mark.parametrize("case", ("base", "C1", "C2", "C3"))
def test_inject_batch_matches_oracle(case):
    trace = _trace(case)
    oracle = _oracle(case)
    fates = _fates(oracle, trace)
    switch = make_pisa(case)
    batch = switch.inject_batch(trace)
    assert [_wire(out) for out in batch] == [wire for wire, _ in fates]
    assert Counter(switch.drop_reasons) == Counter(
        reason for _, reason in fates if reason
    )
    assert _entry_state(switch.tables) == _entry_state(oracle.tables)
