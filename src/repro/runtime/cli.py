"""ipbm-ctl: a command-line controller for the ipbm software switch.

A batch-oriented CLI (each invocation runs a command file), mirroring
the paper's "simple command-line interface, allowing users to load or
offload on-demand protocols and functions at runtime"::

    ipbm-ctl base.rp4 --script updates.txt --snippet ecmp.rp4=./ecmp.rp4

prints the compile/load timings and the resulting TSP mapping.

Observability flags capture what a run recorded (``--trace N`` +
``--trace-out``, ``--timeline-out``, ``--metrics-out``,
``--stats-out``), and three offline subcommands render those exports
back into human-readable form::

    ipbm-ctl stats stats.json            # snapshot/diff -> text
    ipbm-ctl trace traces.jsonl          # packet trace trees
    ipbm-ctl timeline timelines.jsonl    # update phase breakdowns

``ipbm-ctl profile`` runs a scenario live: it replays a workload under
the profiler and renders the per-stage cost table (plus an optional
folded-stack file for flamegraph tooling)::

    ipbm-ctl profile --switch ipsa --case C1 --packets 500

``ipbm-ctl lint`` is the rp4lint static analyzer (also installed as
the ``rp4lint`` console script): parse-soundness, dead-code, and
memory-feasibility diagnostics over rP4 sources and config JSON
before anything touches a device::

    ipbm-ctl lint base.rp4 --strict --format sarif
    ipbm-ctl lint --shipped

``ipbm-ctl verify`` is the rp4verify symbolic differential verifier
(also installed as the ``rp4verify`` console script): it stages an
update against a freshly loaded base, enumerates symbolic flow
classes live-vs-shadow, classifies each as equivalent / intended /
unintended, and synthesizes replayable witness packets for every
divergence -- then aborts the txn without touching the device::

    ipbm-ctl verify base.rp4 updates.txt acl.rp4 --format sarif
    ipbm-ctl verify --shipped --max-seconds 2.0

``ipbm-ctl update`` drives the transactional update path explicitly:
``--staged`` stages (prepare + validate) and then commits with the
stall reported, ``--abort`` stops after staging and proves the device
untouched (a dry run), and ``--nodes N`` runs a canary -> waves staged
rollout across an N-node fabric::

    ipbm-ctl update base.rp4 --script updates.txt --staged
    ipbm-ctl update base.rp4 --script updates.txt --abort
    ipbm-ctl update base.rp4 --script updates.txt --nodes 4 --wave-size 2

``ipbm-ctl int`` stands up a line fabric with multi-hop in-band
telemetry enabled and renders (or exports) what the collector
reconstructed from the hop stacks::

    ipbm-ctl int report --nodes 3 --packets 12
    ipbm-ctl int export records.jsonl --metrics-out int.prom

``ipbm-ctl health`` drives the streaming health engine against an
example fabric: ``check`` runs a fixed number of evaluation ticks and
exits non-zero if any alert is firing, ``watch`` streams per-tick
transitions, ``rules`` renders/round-trips rule files, and ``dump``
runs a deliberately faulty staged rollout and writes the resulting
flight-recorder post-mortem::

    ipbm-ctl health check --nodes 3 --packets 6 --ticks 4
    ipbm-ctl health check --fault n1 --json
    ipbm-ctl health rules --out rules.json
    ipbm-ctl health dump postmortem.json --nodes 4

``ipbm-ctl soak`` runs the fleet soak harness (``python -m
repro.bench.soak``): a sharded fleet replays a known-forwarding trace
through every node while staged rollouts cycle continuously, then the
run's traffic, metric-consistency, memory, and rollout checks are
reported (``--validate`` gates on them)::

    ipbm-ctl soak --nodes 50 --packets 100000 --validate
    ipbm-ctl soak                       # full: 1000 nodes, 10M packets
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.compiler.merge import group_key
from repro.compiler.rp4bc import TargetSpec
from repro.runtime.controller import Controller

OBS_COMMANDS = ("stats", "trace", "timeline", "profile")


def _load_snippets(pairs: List[str]) -> Dict[str, str]:
    sources: Dict[str, str] = {}
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not path:
            raise SystemExit(f"--snippet expects name=path, got {pair!r}")
        with open(path) as fh:
            sources[name] = fh.read()
    return sources


def _print_mapping(controller: Controller, out) -> None:
    design = controller.design
    assert design is not None
    out.write("TSP mapping:\n")
    for side, group in design.plan.all_groups():
        slot = design.layout.slot_of(group_key(group))
        out.write(f"  TSP {slot} [{side:7s}] {' + '.join(group)}\n")
    selector = design.config["selector"]
    out.write(
        f"selector: tm_input={selector['tm_input']} "
        f"tm_output={selector['tm_output']} bypassed={selector['bypassed']}\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in OBS_COMMANDS:
        return _obs_main(argv)
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as rp4lint_main

        return rp4lint_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.analysis.verify_cli import main as rp4verify_main

        return rp4verify_main(argv[1:])
    if argv and argv[0] == "update":
        return _update_main(argv[1:])
    if argv and argv[0] == "int":
        return _int_main(argv[1:])
    if argv and argv[0] == "health":
        return _health_main(argv[1:])
    if argv and argv[0] == "soak":
        from repro.bench.soak import main as soak_main

        return soak_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ipbm-ctl", description="controller for the ipbm software switch"
    )
    parser.add_argument("base", help="rP4 base design file")
    parser.add_argument("--tsps", type=int, default=8)
    parser.add_argument("--script", help="in-situ update script to run")
    parser.add_argument(
        "--snippet", action="append", default=[],
        help="name=path for snippets referenced by the script",
    )
    parser.add_argument(
        "--populate", action="store_true",
        help="install the reference topology (base + known use-case tables)",
    )
    parser.add_argument("--pcap-in", help="replay this pcap through the switch")
    parser.add_argument("--pcap-out", help="write forwarded packets here")
    parser.add_argument(
        "--port", type=int, default=0, help="ingress port for --pcap-in"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print device statistics at exit"
    )
    parser.add_argument(
        "--stats-out", help="write the final statistics snapshot (JSON)"
    )
    parser.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="trace the first N replayed packets (needs --pcap-in)",
    )
    parser.add_argument(
        "--trace-out", help="write captured packet traces (JSON lines)"
    )
    parser.add_argument(
        "--timeline-out",
        help="write controller + device update timelines (JSON lines)",
    )
    parser.add_argument(
        "--metrics-out", help="write Prometheus-style metrics exposition"
    )
    args = parser.parse_args(argv)
    out = sys.stdout

    with open(args.base) as fh:
        base_source = fh.read()
    controller = Controller(TargetSpec(n_tsps=args.tsps))
    timing = controller.load_base(base_source)
    out.write(
        f"base design loaded: t_C={timing.compile_seconds * 1000:.1f}ms "
        f"t_L={timing.load_seconds * 1000:.1f}ms\n"
    )
    _print_mapping(controller, out)
    if args.populate:
        _populate(controller, out)

    if args.script:
        with open(args.script) as fh:
            script_text = fh.read()
        plan, stats, timing = controller.run_script(
            script_text, _load_snippets(args.snippet)
        )
        out.write(
            f"update applied: t_C={timing.compile_seconds * 1000:.1f}ms "
            f"t_L={timing.load_seconds * 1000:.1f}ms "
            f"(templates={stats.templates_written}, "
            f"new tables={stats.tables_created}, "
            f"freed={stats.tables_removed})\n"
        )
        _print_mapping(controller, out)
        if args.populate:
            _populate(controller, out)

    captured_tracer = None
    if args.pcap_in:
        captured_tracer = _replay(controller, args, out)

    if args.stats:
        from repro.runtime.stats import format_stats, snapshot

        out.write(format_stats(snapshot(controller.switch)) + "\n")
    _write_exports(controller, args, out, captured_tracer)
    return 0


def _populate(controller: Controller, out) -> None:
    """Best-effort reference population for whatever tables exist."""
    from repro import programs

    installed = []
    for populate in (
        programs.populate_base_tables,
        programs.populate_ecmp_tables,
        programs.populate_srv6_tables,
        programs.populate_flowprobe_tables,
    ):
        try:
            populate(controller.switch.tables)
            installed.append(populate.__name__)
        except KeyError:
            continue
    out.write(f"populated: {', '.join(installed) or 'nothing'}\n")


def _replay(controller: Controller, args, out):
    """Replay the pcap; returns the packet tracer if tracing was on."""
    from repro.net.pcap import PcapWriter, load_trace

    trace = load_trace(args.pcap_in, port=args.port)
    writer = None
    sink = None
    if args.pcap_out:
        sink = open(args.pcap_out, "wb")
        writer = PcapWriter(sink)
    tracer = None
    if args.trace > 0:
        tracer = controller.switch.enable_tracing(capacity=args.trace)
    forwarded = dropped = 0
    try:
        for i, (data, port) in enumerate(trace):
            if tracer is not None and i == args.trace:
                controller.switch.disable_tracing()  # captured enough
            result = controller.switch.inject(data, port)
            if result is None:
                dropped += 1
            else:
                forwarded += 1
                if writer is not None:
                    writer.write(result.data)
    finally:
        if sink is not None:
            sink.close()
    out.write(
        f"replayed {len(trace)} packets: {forwarded} forwarded, "
        f"{dropped} dropped\n"
    )
    return tracer


def _write_exports(controller: Controller, args, out, captured_tracer=None) -> None:
    """Persist whatever observability sinks the flags asked for."""
    from repro.obs.export import export_timelines, export_traces

    if args.trace_out:
        tracer = captured_tracer or controller.switch.tracer
        if tracer is None:
            from repro.obs.trace import PacketTracer

            tracer = PacketTracer()  # empty export: still a valid file
        count = export_traces(tracer, args.trace_out)
        out.write(f"wrote {count} packet traces to {args.trace_out}\n")
    if args.timeline_out:
        count = export_timelines(
            [controller.timelines, controller.switch.timelines],
            args.timeline_out,
        )
        out.write(f"wrote {count} timelines to {args.timeline_out}\n")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(controller.switch.metrics.to_prometheus())
            fh.write(controller.metrics.to_prometheus())
        out.write(f"wrote metrics exposition to {args.metrics_out}\n")
    if args.stats_out:
        from repro.runtime.stats import snapshot

        with open(args.stats_out, "w") as fh:
            json.dump(snapshot(controller.switch), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write(f"wrote statistics snapshot to {args.stats_out}\n")


# -- transactional update subcommand ---------------------------------------


def _update_main(argv: List[str]) -> int:
    """``ipbm-ctl update``: the staged / transactional update path."""
    parser = argparse.ArgumentParser(
        prog="ipbm-ctl update",
        description="stage, commit, or abort an in-situ update "
        "transactionally (optionally across a fabric)",
    )
    parser.add_argument("base", help="rP4 base design file")
    parser.add_argument("--script", required=True, help="update script")
    parser.add_argument(
        "--snippet", action="append", default=[],
        help="name=path for snippets referenced by the script",
    )
    parser.add_argument("--tsps", type=int, default=8)
    parser.add_argument(
        "--staged", action="store_true",
        help="report the staging phases before committing (the default "
        "path is the same transaction, committed immediately)",
    )
    parser.add_argument(
        "--abort", action="store_true",
        help="stage the update, then abort instead of committing "
        "(a dry run: validates against the live device, changes nothing)",
    )
    parser.add_argument(
        "--nodes", type=int, default=1, metavar="N",
        help="run a staged rollout across an N-node fabric",
    )
    parser.add_argument(
        "--canary", help="canary node name for --nodes (default: first)"
    )
    parser.add_argument("--wave-size", type=int, default=2)
    args = parser.parse_args(argv)
    out = sys.stdout

    with open(args.base) as fh:
        base_source = fh.read()
    with open(args.script) as fh:
        script_text = fh.read()
    sources = _load_snippets(args.snippet)

    if args.nodes > 1:
        return _staged_rollout(args, base_source, script_text, sources, out)

    controller = Controller(TargetSpec(n_tsps=args.tsps))
    controller.load_base(base_source)

    if not (args.staged or args.abort):
        # One-shot: the same transaction, committed immediately.
        _plan, stats, timing = controller.run_script(script_text, sources)
        out.write(
            f"update applied: t_C={timing.compile_seconds * 1000:.1f}ms "
            f"t_L={timing.load_seconds * 1000:.1f}ms "
            f"stall={stats.stall_seconds * 1e6:.1f}us\n"
        )
        _print_mapping(controller, out)
        return 0

    epoch_before = controller.switch.dp.epoch
    try:
        staged = controller.stage_update(script_text, sources)
    except Exception as exc:
        out.write(f"staging failed ({type(exc).__name__}): {exc}\n")
        out.write(
            f"device unchanged: still on epoch {epoch_before}, "
            "no transaction reached commit\n"
        )
        return 1
    txn = staged.txn
    out.write(
        f"staged txn {txn.txn_id}: phase={txn.phase.value} "
        f"t_C={staged.timing.compile_seconds * 1000:.1f}ms\n"
    )
    if args.abort:
        staged.abort()
        out.write(
            f"aborted txn {txn.txn_id}: device state unchanged "
            f"(epoch {controller.switch.dp.epoch})\n"
        )
        return 0
    _plan, stats, timing = staged.commit()
    out.write(
        f"committed txn {txn.txn_id}: epoch {controller.switch.dp.epoch}, "
        f"stall={stats.stall_seconds * 1e6:.1f}us "
        f"t_L={timing.load_seconds * 1000:.1f}ms "
        f"(templates={stats.templates_written}, "
        f"new tables={stats.tables_created}, freed={stats.tables_removed})\n"
    )
    _print_mapping(controller, out)
    return 0


def _staged_rollout(args, base_source, script_text, sources, out) -> int:
    from repro.runtime.fabric import Fabric, RolloutError

    fabric = Fabric()
    for i in range(args.nodes):
        controller = Controller(TargetSpec(n_tsps=args.tsps))
        controller.load_base(base_source)
        fabric.add_node(f"n{i}", controller)
    try:
        report = fabric.staged_rollout(
            script_text,
            sources,
            canary=args.canary,
            wave_size=args.wave_size,
        )
    except RolloutError as err:
        out.write(f"rollout FAILED at node {err.failed!r}: {err.cause}\n")
        out.write(
            f"  committed then rolled back: "
            f"{', '.join(err.rolled_back) or 'none'}\n"
        )
        out.write(f"  never reached: {', '.join(err.pending) or 'none'}\n")
        return 1
    out.write(
        f"rollout complete: canary={report.canary} "
        f"waves={report.waves}\n"
    )
    for name, seconds in report.timings.items():
        out.write(f"  {name}: {seconds * 1000:.1f}ms\n")
    return 0


# -- in-band telemetry subcommand ------------------------------------------


def _int_main(argv: List[str]) -> int:
    """``ipbm-ctl int``: run a multi-hop INT fabric and report on it.

    ``report`` stands up a line fabric with ``int_insert`` enabled on
    every node, replays the watched flow, and renders what the
    collector reconstructed; ``export`` does the same but writes the
    collector records (JSON lines) and optionally the Prometheus
    exposition with the latency histograms.
    """
    from repro.bench.scenarios import INT_STRIP_MODES, make_int_fabric
    from repro.workloads import ipv4_packet

    parser = argparse.ArgumentParser(
        prog="ipbm-ctl int",
        description="multi-hop in-band telemetry: run, report, export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument(
            "--nodes", type=int, default=3, metavar="N",
            help="line-fabric length (default: 3)",
        )
        p.add_argument(
            "--packets", type=int, default=12,
            help="watched-flow packets to replay (default: 12)",
        )
        p.add_argument(
            "--strip", choices=INT_STRIP_MODES, default="edge",
            help="where the stack is stripped: the fabric edge hook or "
            "a dataplane int_strip on the last node (default: edge)",
        )

    report_p = sub.add_parser(
        "report", help="replay the watched flow, render the collector view"
    )
    _common(report_p)
    report_p.add_argument(
        "--json", action="store_true",
        help="emit the collector summary as JSON instead of text",
    )

    export_p = sub.add_parser(
        "export", help="replay, then write collector records (JSON lines)"
    )
    _common(export_p)
    export_p.add_argument("out", help="destination for the JSONL records")
    export_p.add_argument(
        "--metrics-out",
        help="also write the Prometheus exposition (latency histograms)",
    )

    args = parser.parse_args(argv)
    out = sys.stdout

    fabric, collector = make_int_fabric(n_nodes=args.nodes, strip=args.strip)
    trace = [
        (ipv4_packet("10.1.0.1", "10.2.0.1", sport=1024 + i), 0)
        for i in range(args.packets)
    ]
    deliveries = fabric.send_many("sw0", trace)
    delivered = sum(1 for d in deliveries if d is not None)
    out.write(
        f"{args.nodes}-node line fabric [{args.strip} strip]: "
        f"{len(trace)} packets sent, {delivered} delivered\n"
    )

    summary = collector.summary()
    if args.command == "report":
        if args.json:
            out.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            return 0
        out.write(
            f"collector: {summary['packets']} packets, "
            f"{summary['hop_records']} hop records, "
            f"{summary['path_changes']} path changes, "
            f"{summary['epoch_mismatch_packets']} epoch-mismatch packets\n"
        )
        for flow, path in sorted(summary["flows"].items()):
            hops = " -> ".join(f"switch {hop}" for hop in path)
            out.write(f"  {flow}: {hops}\n")
        if collector.records:
            record = collector.records[-1]
            out.write(
                f"  last e2e: {record['e2e_latency_ns']} ns over "
                f"{len(record['hops'])} hops "
                f"(epochs {record['epochs']})\n"
            )
        return 0

    count = collector.export_jsonl(args.out)
    out.write(f"wrote {count} collector records to {args.out}\n")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(collector.metrics.to_prometheus())
        out.write(f"wrote metrics exposition to {args.metrics_out}\n")
    return 0


# -- streaming health subcommand -------------------------------------------


def _health_fabric(n_nodes: int, tsps: int = 8):
    """N independent base nodes (the example fleet the health engine
    watches); a manual clock so ticks are deterministic."""
    from repro.programs import base_rp4_source, populate_base_tables
    from repro.runtime.fabric import Fabric

    fabric = Fabric()
    base_source = base_rp4_source()
    for i in range(n_nodes):
        controller = Controller(TargetSpec(n_tsps=tsps))
        controller.load_base(base_source)
        populate_base_tables(controller.switch.tables)
        fabric.add_node(f"n{i}", controller)
    return fabric


def _health_rules(path: Optional[str]):
    from repro.obs.health import default_rules, load_rules

    if path is None:
        return default_rules()
    with open(path) as fh:
        return load_rules(json.load(fh))


def _health_main(argv: List[str]) -> int:
    """``ipbm-ctl health``: check, watch, rules, dump."""
    from repro.obs.clock import ManualClock
    from repro.obs.health import dump_rules
    from repro.workloads import ipv4_packet

    parser = argparse.ArgumentParser(
        prog="ipbm-ctl health",
        description="streaming health engine: evaluate, watch, "
        "round-trip rules, capture post-mortems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument(
            "--nodes", type=int, default=3, metavar="N",
            help="fleet size (default: 3)",
        )
        p.add_argument(
            "--packets", type=int, default=6,
            help="packets injected per node per tick (default: 6)",
        )
        p.add_argument(
            "--ticks", type=int, default=4,
            help="evaluation ticks to run (default: 4)",
        )
        p.add_argument(
            "--fault", metavar="NODE",
            help="inject this node's traffic into an unwired port "
            "(guaranteed drops) to trip the drop-rate rule",
        )
        p.add_argument(
            "--rules", metavar="FILE",
            help="JSON rule file (default: the stock rule set)",
        )

    check_p = sub.add_parser(
        "check", help="run N ticks; exit 1 if any alert is firing"
    )
    _common(check_p)
    check_p.add_argument(
        "--json", action="store_true",
        help="emit the health summary as JSON instead of text",
    )
    check_p.add_argument(
        "--metrics-out",
        help="write the engine's Prometheus exposition (ALERTS series)",
    )

    watch_p = sub.add_parser(
        "watch", help="like check, but stream every tick's transitions"
    )
    _common(watch_p)

    rules_p = sub.add_parser(
        "rules", help="render the rule set (and round-trip rule files)"
    )
    rules_p.add_argument(
        "--rules", metavar="FILE", help="load rules from this JSON file"
    )
    rules_p.add_argument("--out", metavar="FILE", help="write rules as JSON")
    rules_p.add_argument(
        "--json", action="store_true", help="emit the rule set as JSON"
    )

    dump_p = sub.add_parser(
        "dump",
        help="run a deliberately faulty staged rollout, write the "
        "flight-recorder post-mortem",
    )
    dump_p.add_argument("out", help="destination for the post-mortem JSON")
    dump_p.add_argument("--nodes", type=int, default=4, metavar="N")
    dump_p.add_argument(
        "--fault", metavar="NODE",
        help="wave node whose routing table is cleared pre-rollout "
        "(default: the last node)",
    )
    dump_p.add_argument("--rules", metavar="FILE")

    args = parser.parse_args(argv)
    out = sys.stdout

    if args.command == "rules":
        rules = _health_rules(args.rules)
        payload = dump_rules(rules)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            out.write(f"wrote {len(payload)} rules to {args.out}\n")
        if args.json:
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        elif not args.out:
            for rule in rules:
                spec = rule.to_dict()
                detail = ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(spec.items())
                    if k not in ("kind", "name", "severity") and v not in (None, {})
                )
                out.write(
                    f"{spec['name']} [{spec['kind']}/{spec['severity']}]: "
                    f"{detail}\n"
                )
        return 0

    if args.command == "dump":
        return _health_dump(args, out)

    # check / watch: drive a fleet for N ticks under a manual clock.
    fabric = _health_fabric(args.nodes)
    if args.fault is not None and args.fault not in fabric.nodes:
        raise SystemExit(f"--fault {args.fault!r}: no such node")
    engine = fabric.attach_health(
        rules=_health_rules(args.rules), clock=ManualClock(tick=0.5)
    )
    packet = ipv4_packet("10.1.0.1", "10.2.0.5")
    for tick in range(args.ticks):
        for name, controller in fabric.nodes.items():
            # A faulted node's traffic arrives on an unwired port the
            # port tables don't know: every packet drops.
            port = 42 if name == args.fault else 0
            for _ in range(args.packets):
                controller.switch.inject(packet, port)
        transitions = engine.tick()
        if args.command == "watch":
            scores = " ".join(
                f"{name}={engine.device_health(name):.2f}"
                for name in fabric.nodes
            )
            out.write(f"tick {tick}: {scores}\n")
            for transition in transitions:
                t = transition.to_dict()
                out.write(
                    f"  {t['rule']}@{t['device']}: "
                    f"{t['from']} -> {t['to']} [{t['severity']}]\n"
                )

    summary = engine.health_summary()
    firing = engine.firing()
    if args.command == "check":
        if getattr(args, "metrics_out", None):
            with open(args.metrics_out, "w") as fh:
                fh.write(engine.to_prometheus())
            out.write(f"wrote metrics exposition to {args.metrics_out}\n")
        if args.json:
            out.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        else:
            for name, device in sorted(summary["devices"].items()):
                states = [a["rule"] for a in device["firing"]]
                out.write(
                    f"{name}: health={device['score']:.2f}"
                    + (f" firing={','.join(states)}" if states else "")
                    + "\n"
                )
            out.write(
                f"{len(firing)} firing, "
                f"{summary['transitions']} transitions over "
                f"{args.ticks} ticks\n"
            )
    else:
        out.write(f"{len(firing)} alerts firing after {args.ticks} ticks\n")
    return 1 if firing else 0


def _health_dump(args, out) -> int:
    """Fault a wave node, run the staged rollout, write the post-mortem."""
    from repro.obs.clock import ManualClock
    from repro.programs import srv6_load_script, srv6_rp4_source
    from repro.runtime.fabric import RolloutError
    from repro.workloads import ipv4_packet

    if args.nodes < 2:
        raise SystemExit("dump needs --nodes >= 2 (a canary plus a wave)")
    fabric = _health_fabric(args.nodes)
    engine = fabric.attach_health(
        rules=_health_rules(args.rules), clock=ManualClock(tick=1.0)
    )
    victim = args.fault if args.fault is not None else f"n{args.nodes - 1}"
    if victim not in fabric.nodes:
        raise SystemExit(f"--fault {victim!r}: no such node")
    lpm = fabric.node(victim).switch.table("ipv4_lpm")
    for entry in list(lpm.entries()):
        lpm.remove_entry(entry)

    probe = [(ipv4_packet("10.1.0.1", "10.2.0.5"), 0)]
    try:
        fabric.staged_rollout(
            srv6_load_script(),
            {"srv6.rp4": srv6_rp4_source()},
            probe_trace=probe,
            soak_ticks=4,
        )
    except RolloutError as err:
        record = err.report.flight_record
        out.write(
            f"rollout aborted at {err.failed!r} "
            f"({type(err.cause).__name__}); rolled back: "
            f"{', '.join(err.rolled_back) or 'none'}\n"
        )
        out.write(
            "alert transitions: "
            + "; ".join(
                f"{a['rule']}@{a['device']} {a['from']}->{a['to']}"
                for a in err.report.alerts
            )
            + "\n"
        )
    else:
        # No fault tripped (e.g. rules too lax): still dump the ring.
        record = engine.recorder.dump(reason="manual")
        out.write("rollout completed; dumping the flight ring anyway\n")
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    counts = ", ".join(
        f"{kind}={n}" for kind, n in sorted(record["counts"].items())
    )
    out.write(
        f"wrote flight record ({record['reason']}, "
        f"{len(record['events'])} events: {counts}) to {args.out}\n"
    )
    return 0


# -- offline observability subcommands ------------------------------------


def _obs_main(argv: List[str]) -> int:
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ipbm-ctl", description="render exported observability data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats_p = sub.add_parser("stats", help="render a snapshot/diff JSON file")
    stats_p.add_argument("file", help="snapshot JSON (see --stats-out)")

    trace_p = sub.add_parser("trace", help="render packet traces (JSON lines)")
    trace_p.add_argument("file", help="trace JSONL (see --trace-out)")
    trace_p.add_argument(
        "--seq", type=int, default=None, help="render only this packet seq"
    )
    trace_p.add_argument(
        "--json", action="store_true", help="re-emit as JSON (round-trip check)"
    )

    timeline_p = sub.add_parser(
        "timeline", help="render update timelines (JSON lines)"
    )
    timeline_p.add_argument("file", help="timeline JSONL (see --timeline-out)")
    timeline_p.add_argument(
        "--label", help="only timelines with this label (e.g. apply_update)"
    )
    timeline_p.add_argument(
        "--json", action="store_true", help="re-emit as JSON (round-trip check)"
    )

    args = parser.parse_args(argv)
    out = sys.stdout

    if args.command == "stats":
        from repro.runtime.stats import format_stats

        with open(args.file) as fh:
            out.write(format_stats(json.load(fh)) + "\n")
        return 0

    if args.command == "trace":
        from repro.obs.export import load_traces
        from repro.obs.trace import format_trace

        traces = load_traces(args.file)
        if args.seq is not None:
            traces = [t for t in traces if t.seq == args.seq]
        if args.json:
            for trace in traces:
                out.write(json.dumps(trace.to_dict(), sort_keys=True) + "\n")
        else:
            for trace in traces:
                out.write(format_trace(trace) + "\n")
        return 0

    if args.command == "timeline":
        from repro.obs.export import load_timelines
        from repro.obs.timeline import format_timeline

        timelines = load_timelines(args.file)
        if args.label:
            timelines = [t for t in timelines if t.label == args.label]
        if args.json:
            for timeline in timelines:
                out.write(json.dumps(timeline.to_dict(), sort_keys=True) + "\n")
        else:
            for timeline in timelines:
                out.write(format_timeline(timeline) + "\n")
        return 0

    return 2


def _profile_main(argv: List[str]) -> int:
    """``ipbm-ctl profile``: run one scenario under the profiler."""
    from repro.bench.scenarios import CASES, SWITCHES, case_trace, make_switch
    from repro.obs.prof import format_profile

    parser = argparse.ArgumentParser(
        prog="ipbm-ctl profile",
        description="replay a workload under the per-stage profiler",
    )
    parser.add_argument("--switch", choices=SWITCHES, default="ipsa")
    parser.add_argument("--case", choices=CASES, default="base")
    parser.add_argument("--packets", type=int, default=300)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--top", type=int, default=0,
        help="show only the N most expensive rows (0 = all)",
    )
    parser.add_argument(
        "--folded", metavar="PATH",
        help="also write folded stacks (flamegraph.pl-compatible)",
    )
    args = parser.parse_args(argv)
    out = sys.stdout

    switch = make_switch(args.switch, args.case)
    trace = case_trace(args.case, args.packets, seed=args.seed)
    profiler = switch.enable_profiling()
    batch = switch.inject_batch(trace)
    switch.disable_profiling()
    forwarded, dropped = batch.forwarded, batch.dropped

    out.write(
        f"{args.switch}/{args.case}: {len(trace)} packets "
        f"({forwarded} forwarded, {dropped} dropped)\n"
    )
    out.write(format_profile(profiler, top=args.top) + "\n")
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write("\n".join(profiler.folded(root=args.switch)) + "\n")
        out.write(f"wrote folded stacks to {args.folded}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
