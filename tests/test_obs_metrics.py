"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    Sample,
    bucket_quantile,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("pkts")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        c = Counter("pkts")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_samples_carry_labels(self):
        c = Counter("table.hits", labels={"table": "ipv4_lpm"})
        c.inc(3)
        (sample,) = list(c.samples())
        assert sample.name == "table.hits"
        assert sample.value == 3
        assert sample.labels == {"table": "ipv4_lpm"}
        assert sample.kind == "counter"


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_callback_gauge_reads_at_collect_time(self):
        state = {"v": 1}
        g = Gauge("live", fn=lambda: state["v"])
        assert list(g.samples())[0].value == 1
        state["v"] = 42
        assert list(g.samples())[0].value == 42


class TestHistogram:
    def test_needs_increasing_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))
        Histogram("h", bounds=(64, 128, 256))  # strictly increasing: fine

    def test_observation_on_edge_lands_in_that_bucket(self):
        # Prometheus `le` semantics: value == edge counts in the edge's
        # bucket, not the next one up.
        h = Histogram("bytes", bounds=(64, 128, 256))
        h.observe(64)
        assert h.bucket_counts == [1, 0, 0, 0]
        h.observe(65)
        assert h.bucket_counts == [1, 1, 0, 0]
        h.observe(128)
        assert h.bucket_counts == [1, 2, 0, 0]
        h.observe(1000)  # beyond the last edge: +Inf bucket
        assert h.bucket_counts == [1, 2, 0, 1]

    def test_cumulative_counts_and_edges(self):
        h = Histogram("bytes", bounds=(64, 128))
        for v in (10, 70, 70, 500):
            h.observe(v)
        assert h.bucket_edges() == ["64.0", "128.0", "+Inf"]
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.count == 4
        assert h.sum == 10 + 70 + 70 + 500

    @pytest.mark.parametrize(
        "values",
        [
            (),
            (64,),
            (63, 64, 65, 128, 129, 256, 257, 10**6),  # on, beside, past edges
            tuple(range(40, 300, 7)) * 3,  # unsorted repeats
            (2**40 + 1, 2**40 + 3, 60),  # integer sum stays exact
        ],
    )
    def test_observe_many_equals_repeated_observe(self, values):
        one = Histogram("bytes", bounds=(64, 128, 256))
        many = Histogram("bytes", bounds=(64, 128, 256))
        for histogram in (one, many):
            histogram.observe(100)  # lands on top of earlier observations
        for value in values:
            one.observe(value)
        many.observe_many(list(values))
        assert many.bucket_counts == one.bucket_counts
        assert many.count == one.count == 1 + len(values)
        assert many.sum == one.sum == 100 + sum(values)
        assert many.snapshot() == one.snapshot()

    def test_samples_expand_to_bucket_count_sum(self):
        h = Histogram("lat", bounds=(1,))
        h.observe(0.5)
        h.observe(2.0)
        samples = {(s.name, s.labels.get("le")): s.value for s in h.samples()}
        assert samples[("lat_bucket", "1.0")] == 1
        assert samples[("lat_bucket", "+Inf")] == 2
        assert samples[("lat_count", None)] == 2
        assert samples[("lat_sum", None)] == 2.5


class TestQuantiles:
    def test_bucket_quantile_interpolates(self):
        # 10 observations uniform in the (0, 100] bucket: the median
        # interpolates to the bucket midpoint (lower edge taken as 0).
        assert bucket_quantile((100, 200), (10, 0, 0), 0.5) == pytest.approx(50.0)
        # Landing in the second bucket interpolates from its lower edge.
        assert bucket_quantile((100, 200), (5, 5, 0), 0.9) == pytest.approx(180.0)

    def test_bucket_quantile_edge_cases(self):
        assert bucket_quantile((100,), (0, 0), 0.5) is None  # empty
        # Everything in +Inf clamps to the highest finite edge.
        assert bucket_quantile((100, 200), (0, 0, 7), 0.5) == 200.0
        # q outside [0, 1] clamps.
        assert bucket_quantile((100,), (4, 0), 2.0) == pytest.approx(100.0)

    def test_histogram_quantile(self):
        h = Histogram("lat", bounds=(10, 100, 1000))
        assert h.quantile(0.5) is None
        for v in (5, 5, 50, 50, 500, 500):
            h.observe(v)
        p50 = h.quantile(0.5)
        assert 10 < p50 <= 100
        p99 = h.quantile(0.99)
        assert 100 < p99 <= 1000

    def test_snapshot_is_frozen_copy(self):
        h = Histogram("lat", bounds=(10,))
        h.observe(5)
        snap = h.snapshot()
        h.observe(5)
        assert snap.count == 1 and h.count == 2
        assert snap.quantile(0.5) == h.snapshot().delta(snap).quantile(0.5)

    def test_snapshot_delta_clamps_and_checks_bounds(self):
        a = HistogramSnapshot("h", (10.0,), (1, 0), 1, 5.0)
        b = HistogramSnapshot("h", (10.0,), (3, 1), 4, 25.0)
        d = b.delta(a)
        assert d.counts == (2, 1) and d.count == 3 and d.sum == 20.0
        # Backwards (a counter reset) clamps at zero, never negative.
        r = a.delta(b)
        assert r.counts == (0, 0) and r.count == 0 and r.sum == 0.0
        with pytest.raises(ValueError):
            a.delta(HistogramSnapshot("h", (99.0,), (0, 0), 0, 0.0))

    def test_snapshot_to_dict(self):
        snap = HistogramSnapshot("h", (10.0,), (2, 1), 3, 12.0)
        assert snap.to_dict() == {
            "name": "h",
            "bounds": [10.0],
            "counts": [2, 1],
            "count": 3,
            "sum": 12.0,
        }


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("device.packets_in")
        b = reg.counter("device.packets_in")
        assert a is b

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("table.hits", table="a")
        b = reg.counter("table.hits", table="b")
        assert a is not b
        a.inc(2)
        assert reg.value("table.hits", table="a") == 2
        assert reg.value("table.hits", table="b") == 0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x", bounds=(1,))

    def test_collectors_merge_into_collect(self):
        reg = MetricsRegistry()
        reg.counter("owned").inc(1)
        reg.add_collector(
            "tm", lambda: [Sample("tm.enqueued", 7, {}, "counter")]
        )
        names = {s.name for s in reg.collect()}
        assert {"owned", "tm.enqueued"} <= names
        assert reg.value("tm.enqueued") == 7
        reg.remove_collector("tm")
        assert reg.value("tm.enqueued", default=-1) == -1

    def test_value_default(self):
        reg = MetricsRegistry()
        assert reg.value("ghost") == 0
        assert reg.value("ghost", default=99) == 99

    def test_value_reaches_histograms_by_base_name(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(10,))
        h.observe(5)
        h.observe(50)
        # Base-name lookup falls back to the observation count, so any
        # metric kind is addressable the same way.
        assert reg.value("lat") == 2
        assert reg.value("lat_sum") == 55

    def test_histogram_snapshot_from_collected_samples(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(10, 100), table="x")
        for v in (5, 50, 500):
            h.observe(v)
        snap = reg.histogram_snapshot("lat", table="x")
        assert snap is not None
        assert snap.bounds == (10.0, 100.0)
        assert snap.counts == (1, 1, 1)  # cumulative buckets undiffed
        assert snap.count == 3 and snap.sum == 555
        assert reg.histogram_snapshot("lat", table="other") is None
        assert reg.histogram_snapshot("ghost") is None

    def test_to_dict_flat_mapping(self):
        reg = MetricsRegistry()
        reg.counter("device.packets_in").inc(3)
        reg.counter("table.hits", table="lpm").inc(1)
        flat = reg.to_dict()
        assert flat["device_packets_in"] == 3
        assert flat['table_hits{table="lpm"}'] == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("device.packets_in").inc(3)
        reg.gauge("tm.occupancy").set(2)
        h = reg.histogram("device.packet_bytes", (64, 128))
        h.observe(100)
        text = reg.to_prometheus()
        assert "# TYPE device_packets_in counter" in text
        assert "device_packets_in 3" in text
        assert "# TYPE tm_occupancy gauge" in text
        assert 'device_packet_bytes_bucket{le="+Inf"} 1' in text
        assert "device_packet_bytes_count 1" in text
        assert "device_packet_bytes_sum 100" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        # Prometheus text format: backslash, quote, and newline in a
        # label value must be escaped (and backslash first, so the
        # escapes themselves survive).
        reg = MetricsRegistry()
        reg.counter("flow.hits", flow='10.0.0.1->"evil"\\\n').inc(1)
        text = reg.to_prometheus()
        assert 'flow_hits{flow="10.0.0.1->\\"evil\\"\\\\\\n"} 1' in text
        assert text.count("\n") == 2  # TYPE line + sample line only


class TestSwitchRegistry:
    """The switch's registry is the source of truth for snapshot()."""

    @pytest.fixture
    def switch(self):
        from repro.compiler.rp4bc import compile_base
        from repro.ipsa.switch import IpsaSwitch
        from repro.programs import base_rp4_source, populate_base_tables

        device = IpsaSwitch(n_tsps=8)
        device.load_config(compile_base(base_rp4_source()).config)
        populate_base_tables(device.tables)
        return device

    def test_registry_matches_legacy_snapshot(self, switch):
        from repro.runtime.stats import snapshot
        from repro.workloads import ipv4_packet

        for _ in range(3):
            switch.inject(ipv4_packet("10.1.0.1", "10.2.0.5"), port=0)
        stats = snapshot(switch)
        reg = switch.metrics
        assert reg.value("device.packets_in") == stats["device"]["packets_in"] == 3
        assert reg.value("device.packets_out") == stats["device"]["packets_out"]
        assert reg.value("tm.enqueued") == stats["tm"]["enqueued"] == 3
        assert (
            reg.value("table.hits", table="ipv4_lpm")
            == stats["tables"]["ipv4_lpm"]["hits"]
        )
        tsp0 = next(t for t in stats["tsps"] if t["index"] == 0)
        assert reg.value("tsp.packets", tsp=0) == tsp0["packets"] == 3

    def test_packet_size_histogram_observes_injections(self, switch):
        from repro.workloads import ipv4_packet

        data = ipv4_packet("10.1.0.1", "10.2.0.5")
        switch.inject(data, port=0)
        hist = switch.metrics.histogram(
            "device.packet_bytes", switch._packet_bytes.bounds
        )
        assert hist.count == 1
        assert hist.sum == len(data)

    def test_prometheus_export_covers_subsystems(self, switch):
        from repro.workloads import ipv4_packet

        switch.inject(ipv4_packet("10.1.0.1", "10.2.0.5"), port=0)
        text = switch.metrics.to_prometheus()
        assert "device_packets_in 1" in text
        assert 'tsp_packets{tsp="0"} 1' in text
        assert 'table_entries{table="ipv4_lpm"}' in text
        assert "tm_enqueued 1" in text
