"""Tests for the soak harness."""

import json

import pytest

from repro.bench.soak import build_parser, main, run_soak, rss_bytes


class TestRunSoak:
    def test_tiny_soak_passes_every_check(self):
        report = run_soak(
            n_nodes=6,
            n_packets=600,
            n_workers=2,
            wave_size=3,
            batch=100,
            rollout_every=3,
        )
        assert report["ok"], [
            check for check in report["checks"] if not check["ok"]
        ]
        assert report["packets"] == 600
        assert report["delivered"] == 600
        assert report["rollout_cycles"] >= 1
        names = {check["name"] for check in report["checks"]}
        assert names == {
            "zero_drops",
            "all_delivered",
            "metrics_consistent",
            "channel_logs_bounded",
            "rss_bounded",
            "rollouts_clean",
        }

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_soak(n_nodes=2, n_packets=0)
        with pytest.raises(ValueError):
            run_soak(n_nodes=2, n_packets=10, batch=0)

    def test_rss_probe_returns_positive(self):
        assert rss_bytes() > 0

    def test_cli_validate_and_out(self, tmp_path):
        out_path = tmp_path / "soak.json"
        code = main(
            [
                "--nodes", "4", "--packets", "200", "--batch", "100",
                "--rollout-every", "2", "--workers", "2",
                "--wave-size", "2", "--validate", "--quiet",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] and report["packets"] == 200

    def test_parser_defaults_match_full_mode(self):
        args = build_parser().parse_args([])
        assert args.nodes == 1000
        assert args.packets == 10_000_000
        assert args.workers == 2
