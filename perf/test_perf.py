"""Self-test of the benchmark: ``python -m pytest perf/ -q``.

Not part of tier-1 (``testpaths`` stays ``tests``).  Runs the suite at
``--quick`` size once and checks the document's shape, the contract in
``BENCHMARK.json``, the comparer, and that a wrong output is loud.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = str(HERE / "run.py")

for entry in (str(ROOT / "src"), str(ROOT)):
    sys.path.insert(0, entry)
from perf import compare, spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-out")
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", str(spec.DEFAULT_SEED),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    doc["_out"] = str(out)
    return doc


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    assert contract == spec.benchmark_json()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # Every driver run: the measured seconds plus ~3 s of set-up samples,
    # verification and interpreter start; 8 s leaves room for a slow day.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 8) < 3420


def test_perf_imports_only_the_public_api():
    banned = re.compile(
        r"^\s*(from|import)\s+repro\.(bench|workloads\.traces)\b", re.M
    )
    for path in HERE.glob("*.py"):
        assert not banned.search(path.read_text()), path


def test_document_shape(document):
    assert document["schema"] == spec.SCHEMA
    assert document["seed"] == spec.DEFAULT_SEED
    for key in ("git_commit", "python", "numpy", "nproc", "loadavg_1m_start",
                "loadavg_1m_end"):
        assert key in document["env"]
    assert list(document["workloads"]) == list(spec.WORKLOAD_NAMES)
    listed = {m.name for m in spec.PER_LAYER}
    for name, result in document["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["sizes"] == {
            **spec.sizes(name, quick=True),
            "traced_passes": result["sizes"]["traced_passes"],
            "untraced_passes": result["sizes"]["untraced_passes"],
        }
        e2e = result["end_to_end"]
        expected = {m.name for m in spec.END_TO_END + spec.END_TO_END_UNLISTED
                    if name in m.on}
        assert set(e2e) == expected
        for metric, stats in e2e.items():
            assert stats["unit"] == spec.metric(metric).unit
            assert stats["value"] is not None
        assert e2e["loss_ratio"]["value"] == 0
        assert all(e2e[m.name]["value"] > 0 for m in spec.END_TO_END)

        layer = result["per_layer"]
        assert set(layer) | set(result["not_applicable"]) == listed
        assert not set(layer) & set(result["not_applicable"])
        assert set(layer) == {m.name for m in spec.PER_LAYER if name in m.on}
        for metric, stats in layer.items():
            assert stats["unit"] == spec.metric(metric).unit
            assert stats["value"] is not None, (name, metric)
        assert result["unavailable"] == []
        low, high = spec.BUDGET_CLOSURE_PCT
        assert low <= layer["trace.budget_closure_pct"]["value"] <= high
    assert set(document["workloads"]["update_churn"]["end_to_end"]) >= {
        "update_ms_p50", "post_update_burst_ms_p50",
    }


def test_exact_counts_and_spans(document):
    layer = {name: result["per_layer"]
             for name, result in document["workloads"].items()}
    for name in spec.FABRIC:
        assert layer[name]["fabric.hops_per_pkt"]["value"] == 4
        assert layer[name]["dp.device_calls_per_pkt"]["value"] == 4
    assert layer["fab_shard_int"]["intcol.hop_records_per_pkt"]["value"] == 4
    assert layer["update_churn"]["dp.plan_compiles_per_update"]["value"] == 2
    with open(Path(document["_out"]) / "trace-fab_shard_int.json") as handle:
        trace = json.load(handle)
    assert trace["fields"] == ["id", "parent", "layer", "name", "t0", "t1", "thread"]
    layers = {row[2] for row in trace["rows"]}
    assert layers == {"bench", "fabric", "dp", "channel", "workers", "intcol"}
    assert len({row[6] for row in trace["rows"]}) == 3  # client + 2 workers


def test_driver_line_names_every_listed_metric():
    for trace, listed in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", "dev_srv6_mix", "--seed", "5",
             "--trace", str(trace), "--quick"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in listed]
        for metric, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))
            assert entry["unit"] == spec.metric(metric).unit


def test_compare_flags_a_synthetic_regression(document):
    same = compare.compare(document, document)
    assert not compare.failed(same)
    assert all(r.verdict in ("ok", "unresolved", "same") for r in same)

    slower = copy.deepcopy(document)
    pps = slower["workloads"]["fab_line_plain"]["end_to_end"]["pps"]
    for key in ("value", "min", "q1", "q3"):
        pps[key] *= 0.8
    # Quick runs are two passes; give the parent a spread the bound resolves.
    base = copy.deepcopy(document)
    tight = base["workloads"]["fab_line_plain"]["end_to_end"]["pps"]
    tight["q1"] = tight["q3"] = tight["value"]
    rows = compare.compare(base, slower)
    row = next(r for r in rows
               if (r.workload, r.metric) == ("fab_line_plain", "pps"))
    assert row.verdict == "regressed" and row.worse_by == pytest.approx(0.2)
    assert compare.failed(rows)
    assert "regressed" in compare.render(rows)

    lossy = copy.deepcopy(document)
    lossy["workloads"]["dev_l3_fast"]["end_to_end"]["loss_ratio"]["value"] = 1e-4
    rows = compare.compare(document, lossy)
    assert any(r.metric == "loss_ratio" and r.verdict == "regressed" for r in rows)


# -- wrong outputs must be loud ------------------------------------------


def run_in_process(capsys, *argv: str):
    from perf import run

    status = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def test_corrupt_golden_digest_fails(monkeypatch, tmp_path, capsys):
    from perf import check

    golden = check.load_golden(check.GOLDEN_PATH)
    key = check.golden_key(spec.DEFAULT_SEED, quick=True)
    golden[key]["dev_srv6_mix"] = "0" * 64
    corrupt = tmp_path / "golden.json"
    corrupt.write_text(json.dumps(golden))
    monkeypatch.setattr(check, "GOLDEN_PATH", corrupt)
    status, line = run_in_process(
        capsys, "--workload", "dev_srv6_mix", "--seed", str(spec.DEFAULT_SEED),
        "--quick",
    )
    assert status != 0
    assert line["correct"] is False and line["failed"] > 0


def test_unwired_hop_fails(monkeypatch, capsys):
    from repro.runtime import Fabric

    wire = Fabric.wire

    def wire_all_but_sw2(self, a, port_a, b, port_b):
        if (a, port_a) != ("sw2", 3):
            wire(self, a, port_a, b, port_b)

    monkeypatch.setattr(Fabric, "wire", wire_all_but_sw2)
    status, line = run_in_process(capsys, "--workload", "fab_line_plain", "--quick")
    assert status != 0
    assert line["correct"] is False
    assert line["failed"] == line["attempted"]  # every packet left at sw2
