"""Unit tests for repro.bench: paper artifacts and scenario builders."""

import pytest

from repro.bench.mapping import fig4_mapping, format_mapping
from repro.bench.report import format_table
from repro.bench.scenarios import (
    CASES,
    SWITCHES,
    case_trace,
    make_ipsa,
    make_pisa,
    make_switch,
)
from repro.bench.table1 import (
    Table1Row,
    hardware_flow_model,
    measure_bmv2_flow,
    measure_ipbm_flow,
)


class TestScenarios:
    def test_unknown_arch_and_case_rejected(self):
        with pytest.raises(ValueError):
            make_switch("tofino")
        with pytest.raises(ValueError):
            case_trace("C9", 10)

    def test_ipsa_case_has_snippet_tables(self):
        switch = make_ipsa("C1")
        assert "ecmp_ipv4" in switch.tables

    def test_pisa_case_loads_full_variant(self):
        switch = make_pisa("C2")
        assert "local_sid" in switch.tables  # the SRv6 variant's table

    def test_every_cell_forwards_traffic(self):
        # A scenario is only worth replaying if its packets take the
        # real fast path; one that drops everything exercises nothing.
        for case in CASES:
            trace = case_trace(case, 12)
            for arch in SWITCHES:
                switch = make_switch(arch, case)
                forwarded = sum(
                    1 for data, port in trace
                    if switch.inject(data, port) is not None
                )
                assert forwarded > 0, f"{arch}/{case} forwarded nothing"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["name", "value"], [("a", 1), ("longer", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert all(len(l) >= len("longer  22") for l in lines[2:])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_wide_cells_expand(self):
        text = format_table(["x"], [("abcdefghij",)])
        assert "abcdefghij" in text


class TestFig4Harness:
    def test_mappings_complete(self):
        mappings = fig4_mapping()
        assert set(mappings) == {"base", "C1-ecmp", "C2-srv6", "C3-flowprobe"}
        for design in mappings.values():
            assert design.plan.tsp_count == 7

    def test_format_mapping_letters(self):
        mappings = fig4_mapping()
        text = format_mapping(mappings["base"], "base")
        assert "port_map(A)" in text
        assert "dmac(J)" in text
        text = format_mapping(mappings["C1-ecmp"], "C1")
        assert "ecmp" in text and "nexthop(H)" not in text


class TestTable1Harness:
    def test_row_total(self):
        row = Table1Row("ipbm", "C1", 10.0, 2.0)
        assert row.total_ms == 12.0

    def test_bmv2_flow_shape(self):
        row = measure_bmv2_flow("C1")
        assert row.flow == "bmv2"
        assert row.t_compile_ms > 0 and row.t_load_ms > 0
        assert row.entries_populated > 20  # everything repopulated

    def test_ipbm_flow_shape(self):
        row = measure_ipbm_flow("C1")
        assert row.flow == "ipbm"
        assert row.entries_populated == 10  # 2x4 ECMP members + 2 dmac rows

    def test_hardware_model_scales(self):
        software = Table1Row("bmv2", "C1", 10.0, 1.0)
        hw = hardware_flow_model(software)
        assert hw.flow == "PISA"
        assert hw.t_compile_ms > software.t_compile_ms
        software = Table1Row("ipbm", "C1", 5.0, 0.5)
        hw = hardware_flow_model(software)
        assert hw.flow == "IPSA"

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            measure_ipbm_flow("C9")
