"""Unit tests for the action VM."""

import pytest

from repro.net.headers import IPV4, HeaderInstance
from repro.net.packet import Packet
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
    drop_action,
    evaluate,
    flow_hash,
    mark_to_cpu_action,
)
from repro.tables.table import TableEntry


def packet_with_ipv4(**fields):
    p = Packet(b"\x00" * 64)
    inst = HeaderInstance(IPV4)
    for k, v in fields.items():
        inst.set(k, v)
    p.insert_header(inst)
    return p


class TestExpressions:
    def test_const(self):
        assert evaluate(Const(7), Packet(b""), {}) == 7

    def test_param(self):
        assert evaluate(Param("bd"), Packet(b""), {"bd": 3}) == 3

    def test_unbound_param_raises(self):
        with pytest.raises(KeyError):
            evaluate(Param("bd"), Packet(b""), {})

    def test_field_ref(self):
        p = packet_with_ipv4(ttl=64)
        assert evaluate(FieldRef("ipv4.ttl"), p, {}) == 64

    def test_binop_arith(self):
        p = packet_with_ipv4(ttl=64)
        expr = BinOp("-", FieldRef("ipv4.ttl"), Const(1))
        assert evaluate(expr, p, {}) == 63

    def test_binop_bitwise(self):
        assert evaluate(BinOp("&", Const(0xFF), Const(0x0F)), Packet(b""), {}) == 0x0F
        assert evaluate(BinOp("<<", Const(1), Const(4)), Packet(b""), {}) == 16

    def test_bad_operator(self):
        with pytest.raises(ValueError):
            evaluate(BinOp("%", Const(1), Const(2)), Packet(b""), {})

    def test_hash_expr_deterministic(self):
        p = packet_with_ipv4(src_addr=1, dst_addr=2)
        expr = HashExpr(("ipv4.src_addr", "ipv4.dst_addr"), width=16)
        a = evaluate(expr, p, {})
        assert a == evaluate(expr, p, {})
        assert 0 <= a < 1 << 16

    def test_hash_expr_varies_with_input(self):
        values = {
            evaluate(HashExpr(("ipv4.dst_addr",)), packet_with_ipv4(dst_addr=i), {})
            for i in range(32)
        }
        assert len(values) > 16  # no degenerate collisions

    def test_flow_hash_zero_value(self):
        assert isinstance(flow_hash([0]), int)


class TestOps:
    def test_set_field_header(self):
        p = packet_with_ipv4(ttl=64)
        SetField("ipv4.ttl", Const(5)).execute(ActionContext(p))
        assert p.read("ipv4.ttl") == 5

    def test_set_field_meta(self):
        p = Packet(b"")
        SetField("meta.bd", Const(9)).execute(ActionContext(p))
        assert p.read("meta.bd") == 9

    def test_remove_header(self):
        p = packet_with_ipv4()
        RemoveHeaderOp("ipv4").execute(ActionContext(p))
        assert not p.is_valid("ipv4")

    def test_count_and_mark(self):
        p = Packet(b"")
        p.metadata["flow_marked"] = 0
        entry = TableEntry(key=(1,), action="probe")
        op = CountAndMark("threshold", "meta.flow_marked")
        ctx = ActionContext(p, params={"threshold": 2}, entry=entry)
        op.execute(ctx)
        op.execute(ctx)
        assert p.read("meta.flow_marked") == 0
        op.execute(ctx)
        assert p.read("meta.flow_marked") == 1
        assert entry.counter == 3

    def test_count_and_mark_needs_entry(self):
        op = CountAndMark("threshold", "meta.flow_marked")
        with pytest.raises(RuntimeError):
            op.execute(ActionContext(Packet(b""), params={"threshold": 1}))

    def test_count_and_mark_unbound_threshold_leaves_the_counter(self):
        entry = TableEntry(key=(1,), action="probe", counter=4)
        op = CountAndMark("threshold", "meta.flow_marked")
        with pytest.raises(KeyError, match="threshold"):
            op.execute(ActionContext(Packet(b""), params={}, entry=entry))
        assert entry.counter == 4

    def test_py_primitive(self):
        seen = []
        op = PyPrimitive("probe", lambda ctx: seen.append(ctx.packet))
        p = Packet(b"")
        op.execute(ActionContext(p))
        assert seen == [p]


class TestActionDef:
    def test_set_bd_dmac_from_paper(self):
        # Fig. 5(a): action set_bd_dmac(bit<16> bd, bit<48> dmac)
        act = ActionDef(
            "set_bd_dmac",
            params=[("bd", 16), ("dmac", 48)],
            ops=[
                SetField("meta.bd", Param("bd")),
                SetField("ethernet.dst_addr", Param("dmac")),
            ],
        )
        p = Packet(b"")
        from repro.net.headers import ETHERNET

        p.insert_header(HeaderInstance(ETHERNET))
        act.execute(p, {"bd": 7, "dmac": 0xAABBCCDDEEFF})
        assert p.read("meta.bd") == 7
        assert p.read("ethernet.dst_addr") == 0xAABBCCDDEEFF

    def test_param_width_truncation(self):
        act = ActionDef("a", params=[("x", 8)], ops=[SetField("meta.x", Param("x"))])
        p = Packet(b"")
        act.execute(p, {"x": 0x1FF})
        assert p.read("meta.x") == 0xFF

    def test_missing_param_raises(self):
        act = ActionDef("a", params=[("x", 8)])
        with pytest.raises(KeyError):
            act.execute(Packet(b""), {})

    def test_drop_action(self):
        p = Packet(b"")
        drop_action().execute(p, {})
        assert p.metadata["drop"] == 1

    def test_mark_to_cpu(self):
        p = Packet(b"")
        mark_to_cpu_action().execute(p, {})
        assert p.metadata["to_cpu"] == 1

    def test_param_names(self):
        act = ActionDef("a", params=[("x", 8), ("y", 4)])
        assert act.param_names() == ["x", "y"]


class TestSrv6EndBounds:
    """``srv6_end`` on an SRH whose ``segments_left`` points past its
    segment list drops the packet (RFC 8754 Sec. 4.3.1.1) instead of
    raising out of the switch.  Scalar path only: this runs without
    NumPy."""

    @staticmethod
    def _packet(segments_left):
        from repro.programs.srv6 import LOCAL_SIDS
        from repro.workloads.builders import srv6_packet

        return srv6_packet(
            src="2001:db8:9::1", active_sid=LOCAL_SIDS[0],
            segments=["2001:db8:2::1", LOCAL_SIDS[0]],
            segments_left=segments_left,
        )

    @pytest.mark.parametrize("arch", ["ipsa", "pisa"])
    def test_out_of_range_segments_left_drops(self, arch):
        from repro.bench.scenarios import make_switch

        switch = make_switch(arch, "C2")
        switch.dp.columnar_enabled = False
        assert switch.inject(self._packet(1), 0) is not None  # End
        for left in (0, 3, 5, 255):
            assert switch.inject(self._packet(left), 0) is None
        batch = switch.inject_batch([(self._packet(5), 0)] * 3)
        assert batch.dropped == 3
        assert switch.drop_reasons == {"ingress_action": 7}

    def test_library_layout_drops_past_the_list(self):
        from repro.net.headers import IPV6, SRH
        from repro.tables.primitives import prim_srv6_end

        packet = Packet(b"")
        packet.insert_header(HeaderInstance(IPV6))
        srh = HeaderInstance(SRH, {
            "segments_left": 2, "hdr_ext_len": 2,
            "segment_list": (7).to_bytes(16, "big"),
        })
        packet.insert_header(srh, after="ipv6")
        prim_srv6_end(ActionContext(packet=packet, params={}))
        assert packet.metadata["drop"] == 1
        srh.set("segments_left", 1)
        packet.metadata["drop"] = 0
        prim_srv6_end(ActionContext(packet=packet, params={}))
        assert packet.metadata["drop"] == 0
        assert packet.read("ipv6.dst_addr") == 7
        assert srh.get("segments_left") == 0
