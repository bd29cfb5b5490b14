"""Unit tests for the stage graph and load-script parsing."""

import pytest

from repro.compiler.script import (
    AddLinkCmd,
    DelLinkCmd,
    LinkHeaderCmd,
    LoadCmd,
    ScriptError,
    UnloadCmd,
    parse_script,
)
from repro.compiler.stage_graph import StageGraph, StageGraphError
from repro.rp4 import parse_rp4
from repro.rp4.ast import StageDecl
from repro.programs import base_rp4_source, ecmp_load_script, srv6_load_script


@pytest.fixture
def graph():
    return StageGraph.from_program(parse_rp4(base_rp4_source()))


class TestConstruction:
    def test_chain_edges(self, graph):
        assert graph.successors("port_map") == ["bridge_vrf"]
        assert graph.successors("ipv6_host") == ["nexthop"]

    def test_tm_crossing_edge(self, graph):
        assert "l2_l3_rewrite" in graph.successors("nexthop")

    def test_entries(self, graph):
        assert graph.ingress_entry == "port_map"
        assert graph.egress_entry == "l2_l3_rewrite"

    def test_funcs_attached(self, graph):
        assert graph.nodes["port_map"].func == "l2l3_fwd"
        assert graph.nodes["dmac"].func == "rewrite"

    def test_linearize(self, graph):
        order = graph.linearize("ingress")
        assert order[0] == "port_map"
        assert order[-1] == "nexthop"
        assert graph.linearize("egress") == ["l2_l3_rewrite", "dmac"]


class TestEdits:
    def test_ecmp_script_semantics(self, graph):
        ecmp = StageDecl(name="ecmp")
        graph.add_stage(ecmp, side="ingress", func="ecmp")
        graph.add_link("ipv6_host", "ecmp")
        graph.del_link("ipv6_host", "nexthop")
        graph.add_link("ecmp", "l2_l3_rewrite")
        graph.del_link("nexthop", "l2_l3_rewrite")
        removed = graph.prune_orphans()
        assert removed == ["nexthop"]
        assert graph.linearize("ingress")[-1] == "ecmp"

    def test_duplicate_stage_rejected(self, graph):
        with pytest.raises(StageGraphError):
            graph.add_stage(StageDecl(name="port_map"))

    def test_add_link_unknown_stage(self, graph):
        with pytest.raises(StageGraphError):
            graph.add_link("port_map", "ghost")

    def test_del_missing_link(self, graph):
        with pytest.raises(StageGraphError):
            graph.del_link("port_map", "nexthop")

    def test_add_link_idempotent(self, graph):
        graph.add_link("port_map", "bridge_vrf")
        assert graph.successors("port_map").count("bridge_vrf") == 1

    def test_remove_func_relinks(self, graph):
        # Removing the rewrite func leaves an empty egress side.
        doomed = graph.remove_func("rewrite")
        assert set(doomed) == {"l2_l3_rewrite", "dmac"}
        assert "l2_l3_rewrite" not in graph.successors("nexthop")

    def test_remove_middle_func_bridges_links(self, graph):
        probe = StageDecl(name="probe")
        graph.add_stage(probe, side="ingress", func="probe_fn")
        graph.add_link("l2_l3", "probe")
        graph.del_link("l2_l3", "ipv4_lpm")
        graph.add_link("probe", "ipv4_lpm")
        graph.remove_func("probe_fn")
        assert "ipv4_lpm" in graph.successors("l2_l3")

    def test_remove_unknown_func(self, graph):
        with pytest.raises(StageGraphError):
            graph.remove_func("ghost")

    def test_cycle_detected(self, graph):
        graph.add_link("nexthop", "port_map")
        with pytest.raises(StageGraphError):
            graph.linearize("ingress")

    def test_clone_isolated(self, graph):
        twin = graph.clone()
        twin.del_link("port_map", "bridge_vrf")
        assert graph.successors("port_map") == ["bridge_vrf"]

    def test_tables_in_use(self, graph):
        used = graph.tables_in_use()
        assert "ipv4_lpm" in used and "dmac" in used


class TestScriptParsing:
    def test_paper_style_script(self):
        commands = parse_script(ecmp_load_script())
        assert commands[0] == LoadCmd("ecmp.rp4", "ecmp")
        assert AddLinkCmd("ipv6_host", "ecmp") in commands
        assert DelLinkCmd("nexthop", "l2_l3_rewrite") in commands

    def test_link_header_commands(self):
        commands = parse_script(srv6_load_script())
        links = [c for c in commands if isinstance(c, LinkHeaderCmd)]
        assert LinkHeaderCmd("ipv6", "srh", 43) in links
        assert LinkHeaderCmd("srh", "inner_ipv4", 4) in links

    def test_comments_and_blanks(self):
        commands = parse_script(
            "// full line comment\n\nunload --func_name f # trailing\n"
        )
        assert commands == [UnloadCmd("f")]

    def test_hex_tag(self):
        (cmd,) = parse_script("link_header --pre a --next b --tag 0x2B")
        assert cmd.tag == 43

    def test_errors(self):
        with pytest.raises(ScriptError):
            parse_script("load --func_name x")  # missing source
        with pytest.raises(ScriptError):
            parse_script("add_link just_one")
        with pytest.raises(ScriptError):
            parse_script("link_header --pre a --next b")  # no tag
        with pytest.raises(ScriptError):
            parse_script("frobnicate a b")
        with pytest.raises(ScriptError):
            parse_script("load x.rp4 --func_name")  # dangling option

    @pytest.mark.parametrize("line", [
        "link_header --pre a --next b --tag six",
        "unlink_header --pre a --tag 0x",
    ])
    def test_non_numeric_tag(self, line):
        with pytest.raises(ScriptError, match="line 2: --tag"):
            parse_script("// header links\n" + line)
