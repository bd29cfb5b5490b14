"""Unit tests for rp4fc (P4 -> rP4) and the API generator."""

import pytest

from repro.compiler.rp4fc import Rp4fcError, rp4fc
from repro.lang.expr import EUnary
from repro.p4 import build_hlir, parse_p4
from repro.programs import base_p4_source, base_rp4_source
from repro.programs.p4_variants import srv6_p4_source
from repro.rp4 import analyze, parse_rp4


#: ``if (meta.x == 0) { t1; t2; } else { t3; }`` where t1's default
#: sets ``meta.x = 1``.
GUARD_REWRITE_P4 = """
header ethernet_t { bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype; }
struct headers { ethernet_t ethernet; }
struct metadata { bit<8> x; }
parser P(packet_in pkt, out headers hdr) {
    state start { pkt.extract(hdr.ethernet); transition accept; }
}
control MyIngress(inout headers hdr, inout metadata meta) {
    action set_x() { meta.x = 1; }
    action fwd1() { standard_metadata.egress_spec = 1; }
    action fwd2() { standard_metadata.egress_spec = 2; }
    table t1 {
        key = { hdr.ethernet.ethertype: exact; }
        actions = { set_x; }
        default_action = set_x();
    }
    table t2 {
        key = { hdr.ethernet.ethertype: exact; }
        actions = { fwd1; }
        default_action = fwd1();
    }
    table t3 {
        key = { hdr.ethernet.ethertype: exact; }
        actions = { fwd2; }
        default_action = fwd2();
    }
    apply {
        if (meta.x == 0) { t1.apply(); t2.apply(); } else { t3.apply(); }
    }
}
control MyEgress(inout headers hdr, inout metadata meta) { apply { } }
"""


@pytest.fixture(scope="module")
def result():
    return rp4fc(build_hlir(parse_p4(base_p4_source())))


class TestStructure:
    def test_headers_with_linkage(self, result):
        eth = result.program.headers["ethernet"]
        assert eth.selector == "ethertype"
        assert (0x0800, "ipv4") in eth.links

    def test_metadata_struct(self, result):
        meta = result.program.struct_alias("meta")
        assert meta is not None
        assert ("nexthop", 16) in meta.members

    def test_one_stage_per_apply(self, result):
        hlir = build_hlir(parse_p4(base_p4_source()))
        applies = hlir.applied_tables("ingress") + hlir.applied_tables("egress")
        assert set(result.program.all_stages()) == set(applies)

    def test_predicates_from_control_flow(self, result):
        stage = result.program.ingress_stages["ipv4_lpm"]
        arm = stage.matcher[0]
        assert arm.table == "ipv4_lpm"
        assert arm.cond is not None  # guarded by the if

    def test_else_branch_negated(self, result):
        # ipv6_lpm sits in the else-if branch; its predicate includes a
        # negation of the ipv4 condition.
        stage = result.program.ingress_stages["ipv6_lpm"]

        def has_negation(expr):
            if isinstance(expr, EUnary) and expr.op == "!":
                return True
            return any(
                has_negation(child)
                for child in getattr(expr, "__dict__", {}).values()
                if hasattr(child, "__class__") and hasattr(child, "__dataclass_fields__")
            )

        assert has_negation(stage.matcher[0].cond)

    def test_executor_tags(self, result):
        stage = result.program.ingress_stages["nexthop"]
        assert stage.executor[1] == "set_bd_dmac"
        assert stage.executor["default"] == "drop"

    def test_entries_set(self, result):
        assert result.program.ingress_entry == "port_map"
        assert result.program.egress_entry == "smac_rewrite"


class TestEquivalence:
    def test_output_analyzes_clean(self, result):
        analyze(result.program)

    def test_output_parses_back(self, result):
        again = parse_rp4(result.rp4_source)
        assert set(again.tables) == set(result.program.tables)

    def test_output_compiles_to_same_tsp_count(self, result):
        """rp4fc(P4 base) and the hand-written rP4 base design must
        map onto the same number of TSPs."""
        from repro.compiler.rp4bc import compile_base

        generated = compile_base(result.program)
        handwritten = compile_base(base_rp4_source())
        assert generated.plan.tsp_count == handwritten.plan.tsp_count

    def test_srv6_variant_transforms(self):
        out = rp4fc(build_hlir(parse_p4(srv6_p4_source())))
        assert "srh" in out.program.headers
        assert "local_sid" in out.program.tables
        analyze(out.program)


class TestApiGeneration:
    def test_api_source_compiles(self, result):
        compile(result.api_source, "<generated>", "exec")

    def test_api_classes_present(self, result):
        assert "class Ipv4LpmApi(TableApi):" in result.api_source
        assert "TABLE_APIS" in result.api_source

    def test_api_executes(self, result):
        namespace = {}
        exec(compile(result.api_source, "<generated>", "exec"), namespace)
        apis = namespace["TABLE_APIS"]
        assert set(apis) == set(result.program.tables)
        from repro.compiler.lowering import lower_table

        table = lower_table("port_map", [("meta.ingress_port", "exact", 16)], 64)
        api = apis["port_map"](table)
        api.add(0, action="set_intf", intf=1)
        assert len(api) == 1


class TestErrors:
    def test_bare_statement_rejected(self):
        src = """
        struct metadata { bit<1> m; }
        parser P(packet_in pkt) { state start { transition accept; } }
        control MyIngress(inout headers hdr) {
            apply { meta.m = 1; }
        }
        control MyEgress(inout headers hdr) { apply { } }
        """
        with pytest.raises(Rp4fcError):
            rp4fc(build_hlir(parse_p4(src)))

    def test_guard_rewritten_under_its_if_rejected(self):
        """t1's default writes the field its ``if`` reads, and t2 is
        applied after it under the same ``if``: P4 evaluates the ``if``
        once (t1, t2 fire), but each rP4 stage would evaluate it again
        (t2 skipped, t3 fired).  rp4fc refuses instead of translating."""
        from repro.pisa.switch import PisaSwitch
        from repro.programs.base_l2l3 import populate_base_tables
        from repro.workloads import ipv4_packet

        with pytest.raises(Rp4fcError, match=r"'t1'.*'meta\.x'"):
            rp4fc(build_hlir(parse_p4(GUARD_REWRITE_P4)))
        with pytest.raises(Rp4fcError):
            PisaSwitch().load(GUARD_REWRITE_P4)

        switch = PisaSwitch(n_stages=8)
        switch.load(base_p4_source())
        populate_base_tables(switch.tables)
        probe = ipv4_packet("10.1.0.1", "10.2.0.5")
        before = switch.inject(probe, 0)
        txn = switch.begin_reload(GUARD_REWRITE_P4, entries={})
        with pytest.raises(Rp4fcError):
            txn.prepare()
        after = switch.inject(probe, 0)
        assert before is not None and after is not None
        assert (after.port, after.data) == (before.port, before.data)
        assert "t1" not in switch.tables
