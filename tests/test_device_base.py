"""The shared :class:`~repro.dp.frontdoor.Device` surface.

Both switches are one device with two configuration paths: whatever
the front door, the counters and the metrics registry offer, IPSA and
PISA offer alike -- including the parts PISA used to lack (a batch
``meter``, ``inject_multi``, the sketch gauges) -- and PISA with no
design refuses traffic before it counts any.
"""

import pytest

from repro.bench.scenarios import case_trace, make_switch
from repro.dp.batch import PacketBatch
from repro.obs.trace import DropReason
from repro.pisa.switch import PisaSwitch
from repro.workloads import ipv4_packet

ARCHES = ("ipsa", "pisa")

#: IPSA's own gauges (intake queue, active TSPs): the only ``device.*``
#: names one family exports and the other does not.
IPSA_GAUGES = {"device.rx_queue_depth", "device.active_tsps"}


class _RecordingMeter:
    """The throughput model's meter protocol, recorded in order."""

    def __init__(self):
        self.events = []

    def parsed(self, index, count):
        self.events.append(("parsed", index, count))

    def lookup(self, index, table):
        self.events.append(("lookup", index, table))


def _wire(outputs):
    return [
        None if out is None else (out.port, out.data, out.to_cpu)
        for out in outputs
    ]


class TestPisaWithoutDesign:
    """No design loaded: refused before any counter or clock moves."""

    @pytest.mark.parametrize("call", ["inject", "inject_multi", "batch_list",
                                      "batch_matrix"])
    def test_refuses_before_counting(self, call):
        switch = PisaSwitch()
        frame = ipv4_packet("10.1.0.1", "10.2.0.5")
        runs = {
            "inject": lambda: switch.inject(frame, 0),
            "inject_multi": lambda: switch.inject_multi(frame, 0),
            # Three rows run the scalar loop; nine reach the columnar gate.
            "batch_list": lambda: switch.inject_batch([(frame, 0)] * 3),
            "batch_matrix": lambda: switch.inject_batch(
                PacketBatch.from_frames([frame] * 9, [0] * 9)
            ),
        }
        with pytest.raises(RuntimeError, match="no design loaded"):
            runs[call]()
        assert switch.packets_in == 0
        assert switch.clock == 0
        assert switch.metrics.histogram_snapshot("device.packet_bytes").count == 0


@pytest.mark.parametrize("arch", ARCHES)
class TestSharedSurface:
    def test_batch_meter_matches_singles(self, arch):
        """``inject_batch(trace, meter=m)`` runs the scalar loop and
        feeds ``m`` exactly what N ``inject(..., meter=m)`` calls do."""
        trace = case_trace("base", 12)
        singles, batched = make_switch(arch), make_switch(arch)
        single_meter, batch_meter = _RecordingMeter(), _RecordingMeter()
        single_outs = [
            singles.inject(data, port, meter=single_meter)
            for data, port in trace
        ]
        batch = batched.inject_batch(trace, meter=batch_meter)
        assert _wire(batch) == _wire(single_outs)
        assert batch_meter.events == single_meter.events
        assert any(kind == "lookup" for kind, *_ in batch_meter.events)
        assert batched.packets_in == singles.packets_in == len(trace)

    def test_inject_multi(self, arch):
        """A unicast packet comes back as a one-copy list, counted like
        ``inject``."""
        trace = case_trace("base", 6)
        multi, single = make_switch(arch), make_switch(arch)
        for data, port in trace:
            outs = multi.inject_multi(data, port)
            out = single.inject(data, port)
            assert _wire(outs) == ([] if out is None else _wire([out]))
        assert multi.packets_out == single.packets_out
        assert multi.drop_reasons == single.drop_reasons


def test_same_device_and_sketch_samples():
    """Both families export the same ``device.*`` / ``sketch.*`` names;
    IPSA adds only its two gauges."""
    names = {}
    for arch in ARCHES:
        switch = make_switch(arch)
        switch.externs.sketch("hh").update([1, 2])
        switch.note_drop(DropReason.INGRESS_ACTION)
        names[arch] = {
            sample.name for sample in switch.metrics.collect()
            if sample.name.startswith(("device.", "sketch."))
        }
    assert names["ipsa"] - IPSA_GAUGES == names["pisa"]
    assert IPSA_GAUGES <= names["ipsa"]
    assert {"sketch.updates", "sketch.columns", "sketch.rows"} <= names["pisa"]
