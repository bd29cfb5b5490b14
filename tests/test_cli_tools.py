"""Tests for the three command-line tools (rp4fc, rp4bc, ipbm-ctl)."""

import json

import pytest

from repro.compiler.cli import rp4bc_main, rp4fc_main
from repro.runtime.cli import main as ipbm_ctl_main
from repro.programs import (
    base_p4_source,
    base_rp4_source,
    ecmp_load_script,
    ecmp_rp4_source,
)


@pytest.fixture
def files(tmp_path):
    base_p4 = tmp_path / "base.p4"
    base_p4.write_text(base_p4_source())
    base_rp4 = tmp_path / "base.rp4"
    base_rp4.write_text(base_rp4_source())
    ecmp_rp4 = tmp_path / "ecmp.rp4"
    ecmp_rp4.write_text(ecmp_rp4_source())
    script = tmp_path / "update.txt"
    script.write_text(ecmp_load_script())
    return tmp_path


class TestRp4fcCli:
    def test_writes_rp4_and_api(self, files):
        out = files / "out.rp4"
        api = files / "api.py"
        code = rp4fc_main(
            [str(files / "base.p4"), "-o", str(out), "--api", str(api)]
        )
        assert code == 0
        from repro.rp4 import parse_rp4

        prog = parse_rp4(out.read_text())
        assert "ipv4_lpm" in prog.tables
        compile(api.read_text(), "<api>", "exec")

    def test_stdout_default(self, files, capsys):
        rp4fc_main([str(files / "base.p4")])
        assert "table ipv4_lpm" in capsys.readouterr().out


class TestRp4bcCli:
    def test_base_config(self, files):
        out = files / "config.json"
        code = rp4bc_main([str(files / "base.rp4"), "-o", str(out)])
        assert code == 0
        config = json.loads(out.read_text())
        assert len(config["templates"]) == 7

    def test_with_update_script(self, files):
        out = files / "config.json"
        code = rp4bc_main(
            [
                str(files / "base.rp4"),
                "-o", str(out),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
            ]
        )
        assert code == 0
        config = json.loads(out.read_text())
        assert config["update"]["new_tables"] == ["ecmp_ipv4", "ecmp_ipv6"]
        assert config["update"]["removed_stages"] == ["nexthop"]

    def test_greedy_layout_flag(self, files, capsys):
        code = rp4bc_main([str(files / "base.rp4"), "--layout", "greedy"])
        assert code == 0
        assert "templates" in capsys.readouterr().out

    def test_bad_snippet_spec(self, files):
        with pytest.raises(SystemExit):
            rp4bc_main(
                [
                    str(files / "base.rp4"),
                    "--script", str(files / "update.txt"),
                    "--snippet", "missing-equals-sign",
                ]
            )


class TestIpbmCtl:
    def test_base_only(self, files, capsys):
        code = ipbm_ctl_main([str(files / "base.rp4")])
        assert code == 0
        out = capsys.readouterr().out
        assert "base design loaded" in out
        assert "TSP 0" in out

    def test_with_script(self, files, capsys):
        code = ipbm_ctl_main(
            [
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "update applied" in out
        assert "ecmp" in out


class TestIpbmCtlExtended:
    def test_populate_and_stats(self, files, capsys):
        code = ipbm_ctl_main([str(files / "base.rp4"), "--populate", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "populated: populate_base_tables" in out
        assert "device: in=0" in out

    def test_pcap_replay(self, files, capsys):
        from repro.net.pcap import load_trace, save_trace
        from repro.workloads import mixed_l3_trace

        pcap_in = files / "in.pcap"
        pcap_out = files / "out.pcap"
        save_trace(str(pcap_in), mixed_l3_trace(20, seed=8))
        code = ipbm_ctl_main(
            [
                str(files / "base.rp4"),
                "--populate",
                "--pcap-in", str(pcap_in),
                "--pcap-out", str(pcap_out),
            ]
        )
        assert code == 0
        assert "replayed 20 packets: 20 forwarded" in capsys.readouterr().out
        assert len(load_trace(str(pcap_out))) == 20

    def test_update_one_shot(self, files, capsys):
        code = ipbm_ctl_main(
            [
                "update",
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "update applied" in out
        assert "stall=" in out

    def test_update_staged_commit(self, files, capsys):
        code = ipbm_ctl_main(
            [
                "update",
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
                "--staged",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "staged txn" in out and "phase=validated" in out
        assert "committed txn" in out
        assert "ecmp" in out

    def test_update_abort_is_a_dry_run(self, files, capsys):
        code = ipbm_ctl_main(
            [
                "update",
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
                "--abort",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aborted txn" in out
        assert "device state unchanged" in out

    def test_update_staging_failure_exits_nonzero(self, files, capsys):
        # The script references a snippet that was never supplied.
        code = ipbm_ctl_main(
            [
                "update",
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--staged",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "staging failed" in out
        assert "device unchanged" in out

    def test_update_fabric_rollout(self, files, capsys):
        code = ipbm_ctl_main(
            [
                "update",
                str(files / "base.rp4"),
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
                "--nodes", "3",
                "--wave-size", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rollout complete: canary=n0 waves=[['n1', 'n2']]" in out
        assert "n2:" in out

    def test_health_check_healthy_fleet(self, files, capsys):
        code = ipbm_ctl_main(
            ["health", "check", "--nodes", "2", "--packets", "4", "--ticks", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n0: health=1.00" in out
        assert "n1: health=1.00" in out
        assert "0 firing" in out

    def test_health_check_fault_exits_nonzero(self, files, capsys):
        code = ipbm_ctl_main(
            [
                "health", "check",
                "--nodes", "2",
                "--packets", "4",
                "--ticks", "4",
                "--fault", "n1",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "n1: health=0.00 firing=" in out
        assert "device-drop-rate" in out

    def test_health_check_json_and_metrics(self, files, capsys):
        metrics = files / "alerts.prom"
        code = ipbm_ctl_main(
            [
                "health", "check",
                "--nodes", "2",
                "--ticks", "4",
                "--fault", "n0",
                "--json",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert summary["devices"]["n0"]["score"] == 0.0
        assert summary["devices"]["n1"]["score"] == 1.0
        exposition = metrics.read_text()
        assert 'ALERTS{alertname="device-drop-rate"' in exposition
        assert 'health_score{device="n1"} 1' in exposition

    def test_health_watch_streams_transitions(self, files, capsys):
        code = ipbm_ctl_main(
            ["health", "watch", "--nodes", "2", "--ticks", "4", "--fault", "n1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "tick 0: n0=1.00 n1=1.00" in out
        assert "device-drop-rate@n1: pending -> firing" in out

    def test_health_rules_round_trip(self, files, capsys):
        rules_file = files / "rules.json"
        code = ipbm_ctl_main(["health", "rules", "--out", str(rules_file)])
        assert code == 0
        assert "wrote 3 rules" in capsys.readouterr().out
        payload = json.loads(rules_file.read_text())
        assert [r["kind"] for r in payload] == [
            "threshold", "burn_rate", "absence"
        ]
        # Reload the written file and render it back as JSON: identical.
        code = ipbm_ctl_main(
            ["health", "rules", "--rules", str(rules_file), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_health_dump_writes_postmortem(self, files, capsys):
        postmortem = files / "flight.json"
        code = ipbm_ctl_main(
            ["health", "dump", str(postmortem), "--nodes", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rollout aborted at 'n2'" in out
        assert "rolled back: n2, n1, n0" in out
        record = json.loads(postmortem.read_text())
        assert record["reason"] == "rollout_abort"
        assert record["counts"]["rollback"] == 3
        kinds = {e["kind"] for e in record["events"]}
        assert {"metric", "alert", "txn_commit", "rollback"} <= kinds

    def test_health_unknown_fault_node(self, files):
        with pytest.raises(SystemExit):
            ipbm_ctl_main(["health", "check", "--fault", "ghost"])

    def test_script_with_populate(self, files, capsys):
        code = ipbm_ctl_main(
            [
                str(files / "base.rp4"),
                "--populate",
                "--script", str(files / "update.txt"),
                "--snippet", f"ecmp.rp4={files / 'ecmp.rp4'}",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "populate_ecmp_tables" in out
        assert "table ecmp_ipv4" in out


class TestIpbmCtlIntegration:
    def test_bench_subcommand_is_gone(self):
        # No forwarder left: `bench` is read as the base-design path
        # and the harness flag is an unknown argument.
        with pytest.raises(SystemExit):
            ipbm_ctl_main(["bench", "--smoke"])

    def test_profile_subcommand(self, tmp_path, capsys):
        folded = tmp_path / "stacks.folded"
        code = ipbm_ctl_main(
            [
                "profile",
                "--switch", "ipsa",
                "--case", "base",
                "--packets", "20",
                "--folded", str(folded),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ipsa/base: 20 packets" in out
        assert "phases:" in out
        lines = folded.read_text().strip().splitlines()
        assert lines and all(
            line.startswith("ipsa;") and line.rsplit(" ", 1)[1].isdigit()
            for line in lines
        )

    def test_int_report_subcommand(self, capsys):
        code = ipbm_ctl_main(
            ["int", "report", "--nodes", "3", "--packets", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 packets sent, 4 delivered" in out
        assert "12 hop records" in out
        assert "switch 1 -> switch 2 -> switch 3" in out

    def test_int_export_subcommand(self, tmp_path, capsys):
        records = tmp_path / "int.jsonl"
        metrics = tmp_path / "int.prom"
        code = ipbm_ctl_main(
            [
                "int", "export", str(records),
                "--packets", "3",
                "--strip", "sink",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["path"] == [1, 2, 3]
        assert "int_hop_latency_ns_bucket" in metrics.read_text()
