"""Differential tests for the unified execution core (repro.dp).

The single hook-parameterized loop replaced three hand-maintained
copies of the dataplane semantics; these tests pin the invariant that
made the refactor safe: plain, traced, and profiled runs are
byte-identical on the wire and identical in their table/stat effects,
and ``inject_batch`` equals N individual ``inject`` calls.

The columnar classes extend the same contract to the vectorized batch
path (:mod:`repro.dp.columnar`): across the whole case matrix a batch
run with the columnar fast path enabled must be byte-identical on the
wire -- same ports, same drop slots, same drop reasons, same table and
stage counters -- to the scalar interpreter, including INT hops (the
hop count folds into the signature) and when divergent packets (short
frames, unknown EtherTypes, the ``pop_int`` sink) are peeled out of an
otherwise homogeneous batch.
"""

import random

import pytest

from repro.bench.scenarios import (
    case_trace,
    make_ipsa_controller,
    make_switch,
)
from tests.isolated import run_python

CASES = ("C1", "C2", "C3")
N_PACKETS = 25


def _scalar_switch(arch, case):
    """A switch pinned to the scalar interpreter."""
    switch = make_switch(arch, case)
    switch.dp.columnar_enabled = False
    return switch


def _run(switch, trace):
    """Inject a trace packet-by-packet; one output slot per packet."""
    return [switch.inject(data, port) for data, port in trace]


def _wire(outputs):
    """PortOuts reduced to comparable (port, bytes, to_cpu) tuples."""
    return [
        None if out is None else (out.port, out.data, out.to_cpu)
        for out in outputs
    ]


def _effects(switch):
    """The externally visible side effects of a run."""
    effects = {
        "packets_in": switch.packets_in,
        "packets_out": switch.packets_out,
        "packets_dropped": switch.packets_dropped,
        "punted": switch.punted,
        "drop_reasons": dict(switch.drop_reasons),
        "tables": {
            name: (table.hit_count, table.miss_count)
            for name, table in switch.tables.items()
        },
        "entries": {
            name: sorted(
                (repr(e.key), e.tag, e.hits, e.bytes, e.counter)
                for e in table.entries()
            )
            for name, table in switch.tables.items()
        },
    }
    pipeline = switch.pipeline
    if hasattr(pipeline, "tsps"):
        effects["tsps"] = [
            (
                t.stats.packets, t.stats.lookups, t.stats.headers_parsed,
                t.stats.actions_run,
            )
            for t in pipeline.tsps
        ]
    else:
        stats = pipeline.stats
        effects["stats"] = (stats.packets, stats.lookups, stats.actions_run)
    return effects


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
@pytest.mark.parametrize("case", CASES)
class TestInstrumentationParity:
    """C1-C3: tracing/profiling observe; they must not perturb."""

    def test_traced_run_is_byte_identical(self, arch, case):
        trace = case_trace(case, N_PACKETS)
        plain = make_switch(arch, case)
        traced = make_switch(arch, case)
        traced.enable_tracing(capacity=N_PACKETS)
        plain_outs = _run(plain, trace)
        traced_outs = _run(traced, trace)
        assert _wire(plain_outs) == _wire(traced_outs)
        assert _effects(plain) == _effects(traced)

    def test_profiled_run_is_byte_identical(self, arch, case):
        trace = case_trace(case, N_PACKETS)
        plain = make_switch(arch, case)
        profiled = make_switch(arch, case)
        profiled.enable_profiling()
        plain_outs = _run(plain, trace)
        profiled_outs = _run(profiled, trace)
        assert _wire(plain_outs) == _wire(profiled_outs)
        assert _effects(plain) == _effects(profiled)
        assert profiled.profiler.packets == N_PACKETS


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
class TestBatchEquivalence:
    """inject_batch(trace) == [inject(p) for p in trace], slot for slot."""

    @pytest.mark.parametrize("case", ("base",) + CASES)
    def test_batch_matches_singles(self, arch, case):
        trace = case_trace(case, N_PACKETS)
        singles = make_switch(arch, case)
        batched = make_switch(arch, case)
        single_outs = _run(singles, trace)
        batch = batched.inject_batch(trace)
        assert len(batch) == N_PACKETS
        assert _wire(single_outs) == _wire(list(batch))
        assert _effects(singles) == _effects(batched)
        assert batch.forwarded == sum(
            1 for out in single_outs if out is not None
        )
        assert batch.dropped == N_PACKETS - batch.forwarded

    def test_batch_matches_singles_profiled(self, arch):
        trace = case_trace("base", N_PACKETS)
        singles = make_switch(arch, "base")
        batched = make_switch(arch, "base")
        singles.enable_profiling()
        batched.enable_profiling()
        single_outs = _run(singles, trace)
        batch = batched.inject_batch(trace)
        assert _wire(single_outs) == _wire(list(batch))
        assert batched.profiler.packets == N_PACKETS
        assert singles.profiler.phase_seconds().keys() == (
            batched.profiler.phase_seconds().keys()
        )

    def test_batch_loops_inject_under_tracing(self, arch):
        """With a tracer attached each packet still gets its own trace."""
        trace = case_trace("base", 5)
        switch = make_switch(arch, "base")
        switch.enable_tracing(capacity=16)
        batch = switch.inject_batch(trace)
        assert len(switch.tracer.traces) == 5
        assert batch.forwarded + batch.dropped == 5


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
@pytest.mark.parametrize("case", ("base",) + CASES)
class TestColumnarParity:
    """The vectorized batch path vs the scalar interpreter.

    Full {base,C1,C2,C3} x {ipsa,pisa} matrix: whatever mixture of
    vectorized groups and scalar peels a case produces, the columnar
    front door must be byte-identical on the wire and identical in
    drop reasons, table counters, and stage stats.
    """

    def test_columnar_batch_is_byte_identical(self, arch, case):
        trace = case_trace(case, 60)
        scalar = _scalar_switch(arch, case)
        fast = make_switch(arch, case)
        assert fast.dp.columnar_enabled
        scalar_batch = scalar.inject_batch(trace)
        fast_batch = fast.inject_batch(trace)
        assert _wire(list(scalar_batch)) == _wire(list(fast_batch))
        assert _effects(scalar) == _effects(fast)

    def test_columnar_batch_matches_singles(self, arch, case):
        trace = case_trace(case, 40)
        singles = _scalar_switch(arch, case)
        fast = make_switch(arch, case)
        single_outs = _run(singles, trace)
        batch = fast.inject_batch(trace)
        assert _wire(single_outs) == _wire(list(batch))
        assert _effects(singles) == _effects(fast)


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
@pytest.mark.parametrize("case", ("base", "C1", "C2", "C3"))
def test_columnar_engages_on_hot_cases(arch, case):
    """The headline cells must actually vectorize, or the parity
    matrix above would be comparing the scalar loop with itself."""
    from repro.dp import columnar

    switch = make_switch(arch, case)
    items = case_trace(case, 32)
    outputs = columnar.try_run_batch(switch.dp, items)
    assert outputs is not None
    assert len(outputs) == 32


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
def test_mixed_divergent_batch_preserves_order(arch):
    """A heterogeneous batch -- several parse-set signatures plus rows
    that fall off the parse graph -- comes back in injection order,
    slot for slot, whatever mixture of vector groups and scalar peels
    the classifier produced."""
    from repro.workloads import ipv4_packet, ipv6_packet, l2_packet

    items = []
    for i in range(12):
        items.append((ipv4_packet("10.1.0.1", "10.2.0.1", sport=3000 + i), 0))
        if i % 2 == 0:
            items.append((ipv6_packet("2001:db8::1", "2001:db8:2::5"), 0))
        if i % 3 == 0:
            items.append((l2_packet(i % 4), 0))
        if i % 4 == 0:
            # unknown EtherType: parses eth, then falls off the graph
            items.append((bytes(12) + b"\x88\xb5" + bytes(32), 0))
    scalar = _scalar_switch(arch, "base")
    fast = make_switch(arch, "base")
    scalar_batch = scalar.inject_batch(items)
    fast_batch = fast.inject_batch(items)
    assert len(fast_batch) == len(items)
    assert _wire(list(scalar_batch)) == _wire(list(fast_batch))
    assert _effects(scalar) == _effects(fast)


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
def test_srv6_mixed_batch_matches_singles(arch):
    """C2's SRv6 End runs as one vector kernel: a batch mixing End rows,
    transit rows, exhausted (``segments_left = 0``) and out-of-range
    SRHs, plain IPv6 and IPv4 equals N ``inject`` calls on the wire, in
    drop reasons and in every counter -- and the SRH group runs
    columnar."""
    import numpy as np

    from repro.programs.srv6 import LOCAL_SIDS
    from repro.workloads import ipv4_packet, ipv6_packet, srv6_packet

    def srh(sid, left):
        return srv6_packet(
            src="2001:db8:9::1", active_sid=sid,
            segments=["2001:db8:2::1", sid], segments_left=left,
        )

    kinds = [
        srh(LOCAL_SIDS[0], 1), srh(LOCAL_SIDS[1], 2),  # End
        srh("2001:db8:1::77", 1),  # transit: local_sid misses
        srh(LOCAL_SIDS[0], 0), srh(LOCAL_SIDS[0], 3),  # drop
        srh(LOCAL_SIDS[1], 200), srh("2001:db8:1::77", 9),
        ipv6_packet("2001:db8:1::1", "2001:db8:2::5"),
        ipv4_packet("10.1.0.1", "10.2.0.1"),
    ]
    rng = random.Random(36)
    items = [(rng.choice(kinds), rng.randrange(2)) for _ in range(64)]
    singles = _scalar_switch(arch, "C2")
    fast = make_switch(arch, "C2")
    single_outs = _run(singles, items)
    batch = fast.inject_batch(items)
    assert _wire(single_outs) == _wire(list(batch))
    assert _effects(singles) == _effects(fast)
    assert fast.drop_reasons["ingress_action"] > 0
    sigs = fast.dp._columnar[1].sigs
    srh_sigs = [sp for key, sp in sigs.items() if ("srh", 0) in key[0]]
    assert srh_sigs and all(sp is not None and sp.prepare(np) for sp in srh_sigs)


PROBED = (("10.1.0.1", "10.2.0.1"), ("10.1.0.2", "10.2.0.2"))  # thresholds 5, 100


def _probe_source(arch, edit=None):
    """C3's snippet (IPSA) or whole P4 program (PISA) with the probe
    marking ``meta.drop``, so every mark shows on the wire as a drop;
    ``edit(source)`` rewrites it further."""
    from repro.programs import flowprobe_rp4_source
    from repro.programs.p4_variants import flowprobe_p4_source

    old = "count_and_mark(threshold, meta.flow_marked);"
    if arch == "ipsa":
        source, dest = flowprobe_rp4_source(), "meta.drop"
    else:
        source, dest = flowprobe_p4_source(), "standard_metadata.drop"
    assert source.count(old) == 1
    source = source.replace(old, f"count_and_mark(threshold, {dest});")
    return source if edit is None else edit(source)


def _probe_switch(arch, source, script=None):
    """Base + probe, with both ``PROBED`` flows installed."""
    from repro.pisa.switch import PisaSwitch
    from repro.programs import (
        flowprobe_load_script,
        populate_base_tables,
        populate_flowprobe_tables,
    )

    if arch == "ipsa":
        controller = make_ipsa_controller("base")
        controller.run_script(
            script or flowprobe_load_script(), {"flowprobe.rp4": source}
        )
        switch = controller.switch
    else:
        switch = PisaSwitch(n_stages=8)
        switch.load(source)
        populate_base_tables(switch.tables)
    populate_flowprobe_tables(switch.tables)
    return switch


def _probe_flow(flow, i, proto="udp"):
    from repro.workloads import ipv4_packet

    src, dst = PROBED[flow]
    return (ipv4_packet(src, dst, sport=5000 + i, proto=proto), i % 2)


def _outcome(run):
    """The wire image of ``run()``'s outputs, or what it raised."""
    try:
        return _wire(list(run()))
    except Exception as error:  # compared with the other side, not swallowed
        return type(error), str(error)


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
class TestColumnarProbe:
    """C3's ``count_and_mark`` is one vector kernel that counts each
    entry's rows in batch order.  With the mark on ``meta.drop`` a
    batch must equal N ``inject`` calls slot for slot -- the first
    packet past a threshold drops in the same slot -- and in every
    entry counter.  A batch in which two groups, or a group and a
    peeled row, could reach the counting table runs scalar, as does a
    signature that applies the table twice."""

    def _compare(self, monkeypatch, arch, batches, source=None, script=None,
                 prime=None):
        """Run ``batches`` through ``inject_batch`` and packet by packet
        (what either raises must match too); returns the rows the
        batched device ran on the scalar loop."""
        from repro.dp import frontdoor

        source = source or _probe_source(arch)
        singles, fast = (_probe_switch(arch, source, script) for _ in range(2))
        singles.dp.columnar_enabled = False
        for switch in (singles, fast):
            if prime is not None:
                prime(switch.tables["flow_probe"])
        scalar_rows = []
        run_scalar_rows = frontdoor.run_scalar_rows

        def spy(core, items, rows, outputs, stamps=None, meter=None):
            if core is fast.dp:
                scalar_rows.extend(rows)
            return run_scalar_rows(core, items, rows, outputs, stamps, meter)

        monkeypatch.setattr(frontdoor, "run_scalar_rows", spy)
        for items in batches:
            assert _outcome(lambda: fast.inject_batch(items)) == _outcome(
                lambda: _run(singles, items)
            )
        assert _effects(fast) == _effects(singles)
        return fast, scalar_rows

    def test_thresholds_cross_mid_batch_and_stay_passed(self, monkeypatch, arch):
        """Flow 0 passes 5 in the first batch and stays past it in the
        second; flow 1 starts at 97 of 100 and passes it mid-batch."""
        from repro.workloads import ipv4_packet

        def prime(table):
            next(e for e in table.entries() if e.action_data["threshold"] == 100
                 ).counter = 97

        rng = random.Random(37)
        batches = []
        for _ in range(2):
            items = [_probe_flow(i % 2, i) for i in range(16)] + [
                (ipv4_packet("10.1.0.9", f"10.2.1.{i}", sport=6000 + i), 0)
                for i in range(24)
            ]
            rng.shuffle(items)
            batches.append(items)
        fast, scalar_rows = self._compare(monkeypatch, arch, batches,
                                          prime=prime)
        assert scalar_rows == []
        # 8 rows per flow per batch: 3 + 5 marks, then 8 + 8
        assert fast.drop_reasons["ingress_action"] == (8 - 5) + (8 - 3) + 16
        assert sorted(e.counter for e in fast.tables["flow_probe"].entries()
                      ) == [16, 97 + 16]

    def test_flow_split_across_two_signatures_runs_scalar(self, monkeypatch,
                                                          arch):
        items = [_probe_flow(0, i, "tcp" if i % 3 else "udp") for i in range(24)]
        fast, scalar_rows = self._compare(monkeypatch, arch, [items])
        assert scalar_rows == list(range(len(items)))
        assert fast.drop_reasons["ingress_action"] == 24 - 5

    def test_a_peeled_row_runs_the_batch_scalar(self, monkeypatch, arch):
        """Row 2's UDP header is cut short: classification peels it.  On
        IPSA no stage parses UDP, so it still counts; PISA's parser
        raises on it, after rows 0 and 1 counted."""
        items = [_probe_flow(0, i) for i in range(16)]
        items[2] = (items[2][0][:-4], 0)
        _fast, scalar_rows = self._compare(monkeypatch, arch, [items])
        assert scalar_rows == list(range(len(items)))

    def test_one_table_in_two_stages_is_ineligible(self, monkeypatch, arch):
        import numpy as np

        if arch == "ipsa":
            def edit(source):
                stage = source[source.index("stage flow_probe"):
                               source.index("user_funcs")]
                return source.replace("user_funcs", stage.replace(
                    "stage flow_probe", "stage flow_probe_again"
                ) + "user_funcs").replace(
                    "func flow_probe { flow_probe }",
                    "func flow_probe { flow_probe flow_probe_again }",
                )
            script = (
                "load flowprobe.rp4 --func_name flow_probe\n"
                "add_link l2_l3 flow_probe\n"
                "del_link l2_l3 ipv4_lpm\n"
                "add_link flow_probe flow_probe_again\n"
                "add_link flow_probe_again ipv4_lpm\n"
            )
        else:
            def edit(source):
                old = "            flow_probe.apply();\n"
                assert source.count(old) == 1
                return source.replace(old, old + old)
            script = None
        items = [_probe_flow(i % 2, i) for i in range(16)]
        fast, scalar_rows = self._compare(
            monkeypatch, arch, [items], _probe_source(arch, edit), script,
        )
        assert scalar_rows == list(range(len(items)))
        assert fast.drop_reasons["ingress_action"] == 8 - 2
        (sp,) = fast.dp._columnar[1].sigs.values()
        sites = [ex.table.name for ex in sp.execs].count("flow_probe")
        assert sites == 2 and not sp.prepare(np)

    def test_two_counts_in_one_action_are_ineligible(self, monkeypatch, arch):
        """Per packet the action counts, marks, then counts again: two
        increments a packet, which one kernel pass per op cannot order."""
        def edit(source):
            start = source.index("count_and_mark(")
            call = source[start:source.index(";", start) + 1]
            return source.replace(call, call + " " + call)

        items = [_probe_flow(0, i) for i in range(16)]
        fast, scalar_rows = self._compare(
            monkeypatch, arch, [items], _probe_source(arch, edit)
        )
        assert scalar_rows == list(range(len(items)))
        assert fast.drop_reasons["ingress_action"] == 16 - 2

    def test_count_and_mark_default_fails_like_scalar(self, arch):
        from repro.dp import columnar
        from repro.workloads import ipv4_packet

        def edit(source):
            if arch == "pisa":
                return source
            old = "1: probe_count;\n        default: NoAction;"
            assert source.count(old) == 1
            return source.replace(old, "1: probe_count;\n        default: probe_count;")

        def build():
            switch = _probe_switch(arch, _probe_source(arch, edit))
            table = switch.tables["flow_probe"]
            table.default_action, table.default_data = "probe_count", {"threshold": 3}
            return switch

        items = [_probe_flow(0, i) for i in range(12)]
        items[7] = (ipv4_packet("10.1.0.9", "10.2.1.1"), 0)  # a miss
        scalar, fast, untouched = build(), build(), build()
        scalar.dp.columnar_enabled = False
        failures = []
        for switch in (scalar, fast):
            with pytest.raises(RuntimeError) as raised:
                switch.inject_batch(items)
            failures.append(str(raised.value))
        assert failures[0] == failures[1]
        assert "count_and_mark" in failures[0]
        assert _effects(scalar) == _effects(fast)
        assert scalar.packets_in == 8  # died on the miss
        pristine = _effects(untouched)
        assert columnar.try_run_batch(untouched.dp, items) is None
        assert _effects(untouched) == pristine


def test_lazy_kernels_see_their_own_stages_headers():
    """Kernels compile on first dispatch, after the whole signature has
    been compiled, yet each must see the headers parsed by *its* stage:
    ``port_map`` parses only Ethernet, so a ``decrement_ttl`` there is a
    no-op in the scalar loop (IPv4 is parsed later, on demand)."""
    import numpy as np

    from repro.programs import base_rp4_source, populate_base_tables
    from repro.runtime import Controller

    old = "    meta.intf = intf;\n"
    source = base_rp4_source()
    assert source.count(old) == 1
    switches = []
    for _ in range(2):
        controller = Controller()
        controller.load_base(source.replace(old, old + "    decrement_ttl();\n"))
        populate_base_tables(controller.switch.tables)
        switches.append(controller.switch)
    scalar, fast = switches
    scalar.dp.columnar_enabled = False
    trace = case_trace("base", 32)
    assert _wire(list(scalar.inject_batch(trace))) == _wire(
        list(fast.inject_batch(trace))
    )
    assert _effects(scalar) == _effects(fast)
    sigs = fast.dp._columnar[1].sigs.values()
    assert sigs and all(sp is not None and sp.prepare(np) for sp in sigs)


def _two_action_switch(arch):
    """The base design with ``nexthop`` entries free to pick between
    two actions whose parameter sets differ: ``set_bd_dmac(bd, dmac)``
    and ``set_bd_vrf(bd, vrf)``."""
    from repro.pisa.switch import PisaSwitch
    from repro.programs import (
        base_p4_source,
        base_rp4_source,
        populate_base_tables,
    )
    from repro.runtime import Controller

    if arch == "ipsa":
        old = "1: set_bd_dmac;\n            default: drop;"
        source = base_rp4_source()
        assert source.count(old) == 1
        controller = Controller()
        controller.load_base(
            source.replace(old, "2: set_bd_vrf;\n            " + old)
        )
        switch = controller.switch
    else:
        old = "actions = { set_bd_dmac; drop; }"
        source = base_p4_source()
        assert source.count(old) == 1
        switch = PisaSwitch(n_stages=8)
        switch.load(
            source.replace(old, "actions = { set_bd_dmac; set_bd_vrf; drop; }")
        )
    populate_base_tables(switch.tables)
    return switch


@pytest.mark.parametrize("arch", ["ipsa", "pisa"])
class TestColumnarActionDispatch:
    """Per-action dispatch and touched-entry counters vs the scalar
    loop: the columnar path runs each action kernel once per batch
    over parameter *columns* and bumps only the entries a batch hit,
    so per-entry hits/bytes, every stage stat and every drop reason
    must still equal the per-packet interpreter's."""

    BURST = 64

    @staticmethod
    def _route(switch, table, key, nexthop):
        from repro.tables.table import TableEntry

        switch.tables[table].add_entry(TableEntry(
            key=key, action="set_nexthop", action_data={"nexthop": nexthop},
            tag=1,
        ))

    def _assert_parity(self, scalar, fast, items):
        from repro.dp import columnar

        scalar.dp.columnar_enabled = False
        for start in range(0, len(items), self.BURST):
            burst = items[start:start + self.BURST]
            assert _wire(list(scalar.inject_batch(burst))) == _wire(
                list(fast.inject_batch(burst))
            )
        assert _effects(scalar) == _effects(fast)
        if columnar._numpy() is not None:  # else: scalar vs scalar
            sigs = fast.dp._columnar[1].sigs
            assert any(sp is not None for sp in sigs.values())

    def test_large_lpm_table_under_zipf_flows_with_misses(self, arch):
        from repro.workloads import ipv4_packet

        rng = random.Random(5)
        prefixes = set()
        while len(prefixes) < 2048:
            plen = rng.choice((12, 16, 20, 24, 28, 32))
            prefixes.add((rng.getrandbits(plen) << (32 - plen), plen))
        switches = [make_switch(arch, "base") for _ in range(2)]
        for switch in switches:
            table = switch.tables["ipv4_lpm"]
            default = next(e for e in table.entries() if e.key[1] == (0, 0))
            table.remove_entry(default)  # no default route: misses drop
            for value, plen in sorted(prefixes):
                self._route(
                    switch, "ipv4_lpm", (1, (value, plen)), 1 + value % 3
                )
        routed = [
            value | rng.getrandbits(32 - plen)
            for value, plen in rng.sample(sorted(prefixes), 240)
        ]
        flows = routed + [rng.getrandbits(32) for _ in range(60)]
        rng.shuffle(flows)
        weights = [1 / (rank + 1) ** 1.1 for rank in range(len(flows))]
        items = [
            (ipv4_packet("10.1.0.1", dst, payload=bytes(rng.randrange(24))),
             rng.randrange(2))
            for dst in rng.choices(flows, weights, k=640)
        ]
        self._assert_parity(*switches, items)
        table = switches[1].tables["ipv4_lpm"]
        assert table.miss_count and table.hit_count
        assert sum(e.hits for e in table.entries()) == table.hit_count

    def test_one_table_two_actions_in_one_batch(self, arch):
        from repro.net.addresses import parse_ipv4, parse_mac
        from repro.programs.base_l2l3 import ROUTER_MAC
        from repro.tables.table import TableEntry
        from repro.workloads import ipv4_packet

        switches = [_two_action_switch(arch) for _ in range(2)]
        for switch in switches:
            for third_octet, nexthop in ((3, 4), (4, 5), (5, 6)):
                self._route(
                    switch, "ipv4_lpm",
                    (1, (parse_ipv4(f"10.{third_octet}.0.0"), 16)), nexthop,
                )
            # nexthops 4 and 5 re-bridge instead of rewriting the DMAC;
            # only bd 1 resolves the (unchanged) router MAC at egress,
            # and nexthop 6 has no entry at all (default: drop).
            for nexthop, bd in ((4, 1), (5, 2)):
                switch.tables["nexthop"].add_entry(TableEntry(
                    key=(nexthop,), action="set_bd_vrf",
                    action_data={"bd": bd, "vrf": 7}, tag=2,
                ))
            switch.tables["dmac"].add_entry(TableEntry(
                key=(1, parse_mac(ROUTER_MAC)), action="set_egress_port",
                action_data={"port": 3}, tag=1,
            ))
        items = [
            (ipv4_packet("10.1.0.1", f"10.{1 + i % 5}.0.{1 + i % 9}",
                         sport=2000 + i), i % 2)
            for i in range(3 * self.BURST)
        ]
        self._assert_parity(*switches, items)
        entries = switches[1].tables["nexthop"].entries()
        for action in ("set_bd_dmac", "set_bd_vrf"):
            assert sum(e.hits for e in entries if e.action == action)
        assert switches[1].drop_reasons  # both the miss and the egress drop

    def test_wide_keys_and_hash_engine(self, arch):
        from repro.net.addresses import parse_ipv6
        from repro.tables.table import TableEntry
        from repro.workloads import ipv4_packet, ipv6_packet

        rng = random.Random(11)
        switches = [make_switch(arch, "C1") for _ in range(2)]
        for switch in switches:
            for subnet in range(40):
                self._route(
                    switch, "ipv6_lpm",
                    (1, (parse_ipv6(f"2001:db8:2:{subnet:x}::"), 64)),
                    1 + subnet % 3,
                )
            for host in range(1, 20):
                self._route(
                    switch, "ipv6_host",
                    (1, parse_ipv6(f"2001:db8:2:{host:x}::{host:x}")),
                    1 + host % 3,
                )
        items = []
        for i in range(4 * self.BURST):
            subnet = rng.randrange(48)  # 40..47 only match the /48
            host = subnet if rng.random() < 0.3 else rng.randrange(1, 500)
            if i % 4 == 3:
                data = ipv4_packet("10.1.0.1", f"10.2.{subnet}.{1 + host % 200}")
            elif i % 16 == 0:
                data = ipv6_packet("2001:db8:1::1", f"2001:db9::{host:x}")
            else:
                data = ipv6_packet(
                    "2001:db8:1::1", f"2001:db8:2:{subnet:x}::{host:x}",
                    payload=bytes(i % 7),
                )
            items.append((data, i % 2))
        self._assert_parity(*switches, items)
        tables = switches[1].tables
        assert tables["ipv6_host"].hit_count and tables["ipv6_host"].miss_count
        for name in ("ecmp_ipv4", "ecmp_ipv6"):
            assert sum(1 for e in tables[name].entries() if e.hits) > 1

    def test_entry_missing_a_parameter_fails_like_scalar(self, arch):
        from repro.dp import columnar
        from repro.net.addresses import parse_ipv4
        from repro.tables.table import TableEntry
        from repro.workloads import ipv4_packet

        def build():
            switch = make_switch(arch, "base")
            self._route(
                switch, "ipv4_lpm", (1, (parse_ipv4("10.7.0.0"), 16)), 7
            )
            switch.tables["nexthop"].add_entry(TableEntry(
                key=(7,), action="set_bd_dmac", action_data={"bd": 2}, tag=1,
            ))
            return switch

        items = [
            (ipv4_packet("10.1.0.1", "10.7.0.9" if i == 11 else "10.2.0.9",
                         sport=4000 + i), 0)
            for i in range(32)
        ]
        scalar, fast, untouched = build(), build(), build()
        scalar.dp.columnar_enabled = False
        failures = []
        for switch in (scalar, fast):
            with pytest.raises(KeyError) as raised:
                switch.inject_batch(items)
            failures.append(str(raised.value))
        assert failures[0] == failures[1]
        assert "set_bd_dmac" in failures[0] and "dmac" in failures[0]
        assert _effects(scalar) == _effects(fast)
        assert scalar.packets_in == 12  # died on the offending packet
        # The columnar attempt itself declines before any side effect.
        pristine = _effects(untouched)
        assert columnar.try_run_batch(untouched.dp, items) is None
        assert _effects(untouched) == pristine


class TestColumnarInt:
    """INT hops run columnar: the hop count folds into the signature and
    ``push_int`` is one kernel per group.  Under a frozen clock
    (``ManualClock(tick=0)``) the columnar batch must equal the scalar
    loop on bytes, ports, counters, ``headers_parsed`` and drop
    reasons; rows whose ``int_strip`` entry dispatches ``pop_int``
    still peel."""

    WATCHED = ("10.1.0.1", "10.2.0.1")

    @classmethod
    def _wire(cls, hops=0, src=None, sport=1024, **kwargs):
        """A watched-flow packet (``src`` overrides the source address)
        already wearing ``hops`` records, as an upstream switch left it."""
        from repro.net.headers import INT_ETHERTYPE, int_pack_hop
        from repro.workloads import ipv4_packet

        data = ipv4_packet(src or cls.WATCHED[0], cls.WATCHED[1],
                           sport=sport, **kwargs)
        if not hops:
            return data
        stack = b"".join(
            int_pack_hop({"switch_id": 10 + j, "ingress_ts": 1000 * j,
                          "egress_ts": 1000 * j + 7, "dp_epoch": 1})
            for j in range(hops)
        )
        return (data[:12] + INT_ETHERTYPE.to_bytes(2, "big") + data[12:14]
                + bytes([hops]) + stack + data[14:])

    @staticmethod
    def _controller(sink=False, tick=0.0):
        """Base + ``int_insert`` (switch id 2) on a frozen INT clock;
        ``sink`` adds ``int_strip`` and a device-side collector."""
        from repro.obs.clock import ManualClock
        from repro.obs.intcol import IntCollector
        from repro.programs import (
            int_load_script,
            int_rp4_source,
            int_strip_load_script,
            int_strip_rp4_source,
            populate_int_sink_tables,
            populate_int_tables,
        )

        controller = make_ipsa_controller("base")
        controller.run_script(int_load_script(), {"int.rp4": int_rp4_source()})
        populate_int_tables(controller.switch.tables, switch_id=2)
        if sink:
            controller.run_script(
                int_strip_load_script(),
                {"int_strip.rp4": int_strip_rp4_source()},
            )
            populate_int_sink_tables(controller.switch.tables)
            controller.switch.attach_int_collector(IntCollector(), node="sink")
        controller.switch.enable_int(ManualClock(start=1.0, tick=tick))
        return controller

    def _compare(self, batches, sink=False, between=None):
        """Run ``batches`` on a scalar and a columnar device; every batch
        must match on the wire and the devices on every counter.
        ``between(controller)`` runs on both between batches.  Returns
        the columnar switch."""
        scalar, fast = self._controller(sink), self._controller(sink)
        scalar.switch.dp.columnar_enabled = False
        for position, items in enumerate(batches):
            if position and between is not None:
                between(scalar)
                between(fast)
            want = scalar.switch.inject_batch(items)
            got = fast.switch.inject_batch(items)
            assert _wire(list(got)) == _wire(list(want))
        assert _effects(fast.switch) == _effects(scalar.switch)
        if sink:
            assert (fast.switch.int_collector.records
                    == scalar.switch.int_collector.records)
        return fast.switch

    @staticmethod
    def _signatures(switch):
        """``{(header, varbit bytes) chain: runs columnar}`` of the
        switch's cached columnar program."""
        return {
            key[0]: sp is not None
            for key, sp in switch.dp._columnar[1].sigs.items()
        }

    def test_first_hop_push(self):
        from repro.workloads import ipv4_packet

        items = [
            (self._wire(sport=1024 + i) if i % 2 else
             ipv4_packet("10.1.0.5", "10.2.0.9", sport=1024 + i), 0)
            for i in range(32)
        ]
        fast = self._compare([items])
        assert self._signatures(fast) == {
            (("ethernet", 0), ("ipv4", 0), ("udp", 0)): True,
        }

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_transit_push(self, hops):
        items = [(self._wire(hops, sport=1024 + i), 0) for i in range(24)]
        items[5] = (self._wire(hops, sport=99, ttl=1), 0)  # egress drop
        fast = self._compare([items])
        chain = (("ethernet", 0), ("int_shim", 18 * hops), ("ipv4", 0),
                 ("udp", 0))
        assert self._signatures(fast) == {chain: True}
        assert fast.drop_reasons

    def test_watched_and_unwatched_flows_in_one_batch(self):
        items = []
        for i in range(12):
            items += [
                (self._wire(2, sport=1024 + i), 0),
                (self._wire(0, sport=2048 + i), 0),
                (self._wire(0, src="10.1.0.7", sport=3072 + i), 0),
            ]
        fast = self._compare([items])
        assert all(self._signatures(fast).values())

    def test_two_hop_counts_in_one_batch(self):
        items = [
            (self._wire(1 + i % 2, sport=1024 + i), 0) for i in range(32)
        ]
        fast = self._compare([items])
        assert {
            chain[1]: eligible
            for chain, eligible in self._signatures(fast).items()
        } == {("int_shim", 18): True, ("int_shim", 36): True}

    def test_epoch_flip_between_batches(self):
        from repro.obs.intcol import IntCollector
        from repro.programs import acl_load_script, acl_rp4_source

        def flip(controller):
            controller.run_script(acl_load_script(), {"acl.rp4": acl_rp4_source()})

        items = [(self._wire(1, sport=1024 + i), 0) for i in range(16)]
        fast = self._compare([items, items], between=flip)
        epochs = {
            hop["dp_epoch"]
            for out in fast.inject_batch(items)
            for hop in IntCollector().ingest(out.data).record["hops"]
        }
        assert epochs == {1, fast.dp.epoch} and fast.dp.epoch > 1

    def test_sink_strip_still_peels(self):
        """Arms compile only the actions their entries dispatch, so both
        sink signatures compile; what peels them is decided per batch,
        at ``prepare``.  While ``int_watch`` dispatches ``int_add``, a
        push would land ahead of ``int_strip``'s shim check, so both
        peel.  Once it dispatches none, shim-less rows run columnar and
        only the rows whose ``int_sink`` entry dispatches ``pop_int``
        (no kernel) peel."""
        import numpy as np

        from repro.workloads import ipv4_packet

        items = [
            (self._wire(1, sport=1024 + i) if i % 2 else
             ipv4_packet("10.1.0.5", "10.2.0.9", sport=1024 + i), 0)
            for i in range(16)
        ]
        fast = self._compare([items], sink=True)
        sigs = fast.dp._columnar[1].sigs
        assert len(sigs) == 2 and all(sp is not None for sp in sigs.values())
        assert not any(sp.prepare(np) for sp in sigs.values())
        assert len(fast.int_collector.records) == 8

        def unwatch(controller):
            table = controller.switch.tables["int_watch"]
            for entry in list(table.entries()):
                table.remove_entry(entry)

        fast = self._compare([items, items], sink=True, between=unwatch)
        split = {
            ("int_shim", 18) in key[0]: sp.prepare(np)
            for key, sp in fast.dp._columnar[1].sigs.items()
        }
        assert split == {True: False, False: True}
        refused = [
            ex.table.name
            for sp in fast.dp._columnar[1].sigs.values()
            for ex in sp.execs
            if ex.dispatch is not None and ex.dispatch[2] is None
        ]
        assert refused == ["int_sink"]
        assert len(fast.int_collector.records) == 16

    def test_push_ahead_of_a_strip_peels(self):
        """A first-hop push on a sink makes the shim valid for
        ``int_strip``, which a per-signature validity set cannot say:
        the lazily compiled push refuses to land ahead of the strip
        stage's shim check, the group peels, and every record still
        reaches the collector."""
        import numpy as np

        items = [(self._wire(0, sport=1024 + i), 0) for i in range(16)]
        fast = self._compare([items], sink=True)
        assert len(fast.int_collector.records) == 16
        (sp,) = fast.dp._columnar[1].sigs.values()
        assert sp is not None and not sp.prepare(np)

    def test_peeled_row_keeps_its_ingress_stamp(self):
        """A row the columnar batch peels (here: a UDP header cut short,
        which classification cannot type but no scalar stage parses)
        still pushes its record with the stamp read at batch entry."""
        from repro.obs.intcol import IntCollector

        switch = self._controller(tick=1e-6).switch
        items = [(self._wire(1, sport=1024 + i), 0) for i in range(16)]
        items.append((self._wire(1, sport=99)[:-4], 0))
        outputs = switch.inject_batch(items)
        assert switch.dp._columnar is not None
        hops = [
            IntCollector().ingest(out.data).record["hops"][-1]
            for out in outputs[:-1]
        ]
        last = outputs[-1]
        assert last is not None
        assert len(last.data) == len(items[-1][0]) + 18
        record = 14 + 3 + 18  # behind Ethernet, the shim and one hop
        stamp = int.from_bytes(last.data[record + 2:record + 8], "big")
        egress = int.from_bytes(last.data[record + 8:record + 14], "big")
        assert max(hop["ingress_ts"] for hop in hops) < stamp < egress


class TestColumnarPlanEpochs:
    """The cached columnar program follows plan invalidation/flips."""

    def test_epoch_flip_between_batches(self):
        from repro.bench.scenarios import CASE_ARTIFACTS

        script, snippet, name, populate, _ = CASE_ARTIFACTS["C1"]
        scalar_ctl = make_ipsa_controller("base")
        fast_ctl = make_ipsa_controller("base")
        scalar_sw = scalar_ctl.switch
        scalar_sw.dp.columnar_enabled = False
        fast_sw = fast_ctl.switch

        base_trace = case_trace("base", 40)
        s1 = scalar_sw.inject_batch(base_trace)
        f1 = fast_sw.inject_batch(base_trace)
        assert _wire(list(s1)) == _wire(list(f1))
        cached_before = fast_sw.dp._columnar
        assert cached_before is not None
        assert cached_before[0] is fast_sw.dp.plan()

        # The epoch flip: C1 loaded in-situ between batches.  The old
        # columnar program is keyed on the old plan object, so the
        # flip retires it for free.
        for ctl in (scalar_ctl, fast_ctl):
            ctl.run_script(script(), {name: snippet()})
            populate(ctl.switch.tables)

        c1_trace = case_trace("C1", 40)
        s2 = scalar_sw.inject_batch(c1_trace)
        f2 = fast_sw.inject_batch(c1_trace)
        assert _wire(list(s2)) == _wire(list(f2))
        assert _effects(scalar_sw) == _effects(fast_sw)
        cached_after = fast_sw.dp._columnar
        assert cached_after[0] is fast_sw.dp.plan()
        assert cached_after[0] is not cached_before[0]

    def test_occupied_tm_defers_to_scalar(self):
        """In-flight TM packets (mid-update drains) force the scalar
        loop: the columnar passthrough assumes an empty TM."""
        from repro.dp import columnar

        switch = make_switch("ipsa", "base")
        trace = case_trace("base", 8)
        parked = switch.dp.new_packet(trace[0][0], 0)
        switch.pipeline.tm.enqueue(parked)
        assert columnar.try_run_batch(switch.dp, trace) is None


class TestDistinctHelper:
    """``columnar._distinct`` stands in for ``np.unique`` (same groups,
    same order, same counts) without that function's lazy
    ``numpy.ma`` import."""

    @pytest.mark.parametrize(
        "values",
        [[], [7], [4, 4, 4], [3, -1, 3, 9, -1, 3, 0], list(range(5, 0, -1))],
    )
    def test_matches_np_unique(self, values):
        import numpy as np

        from repro.dp import columnar

        array = np.array(values, dtype=np.int64)
        want, want_counts = np.unique(array, return_counts=True)
        got, got_counts = columnar._distinct(np, array, counts=True)
        assert got.tolist() == want.tolist()
        assert got_counts.tolist() == want_counts.tolist()
        assert got.dtype == want.dtype
        assert columnar._distinct(np, array).tolist() == want.tolist()

    def test_columnar_batch_never_imports_numpy_ma(self):
        """In a fresh interpreter: a batch that takes the vector path
        (classify, exact + LPM lookups, TM passthrough) leaves
        ``numpy.ma`` unloaded."""
        run_python(
            "import sys\n"
            "from repro.bench.scenarios import case_trace, make_switch\n"
            "from repro.dp import columnar\n"
            "switch = make_switch('ipsa', 'base')\n"
            "outputs = columnar.try_run_batch(switch.dp, case_trace('base', 32))\n"
            "assert outputs is not None and len(outputs) == 32\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
