"""Fabric-wide INT collector: per-flow paths from in-band hop stacks.

Transit switches push one 18-byte hop record per traversal (see
``repro.net.headers.INT_HOP_FIELDS``); this module is the sink side.
:class:`IntCollector` consumes instrumented packets -- either wire
bytes via :meth:`IntCollector.ingest` / :meth:`IntCollector.ingest_batch`
(the :class:`~repro.runtime.fabric.Fabric` delivery hook, one batch per
delivery round) or already-parsed hop stacks via
:meth:`IntCollector.observe_strip` (the ``pop_int`` device hook) --
and turns them into:

* per-hop and end-to-end latency histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` (Prometheus-exportable);
* reconstructed per-flow paths with **path-change events** whenever a
  flow's hop list differs from the last one seen;
* **epoch-mismatch observations**: each hop record carries the
  dataplane plan epoch it was forwarded under, so a packet crossing a
  half-updated fabric carries the staged rollout's progress in-band.
  ``staged_rollout`` reads these back as rollout evidence.

Everything the collector records is a plain dict, exported as JSON
lines through :func:`repro.obs.export.write_jsonl`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.addresses import format_ipv4
from repro.net.headers import (
    INT_ETHERTYPE,
    INT_HOP_BYTES,
    INT_HOP_FIELDS,
    INT_SHIM,
    HeaderType,
    int_hop_records,
    standard_header_types,
)
from repro.net.linkage import standard_linkage
from repro.net.packet import Packet
from repro.obs.export import PathOrFile, write_jsonl
from repro.obs.metrics import Histogram, MetricsRegistry

#: Latency bucket edges in nanoseconds (1us .. 10s, decade ladder).
LATENCY_BOUNDS_NS = tuple(10**k for k in range(3, 11))

#: Hop timestamps are 48-bit and wrap; differences are taken mod 2^48.
_TS_MODULUS = 1 << 48


def _ts_delta(start: int, end: int) -> int:
    """Wrap-aware difference of two 48-bit nanosecond stamps."""
    return (end - start) % _TS_MODULUS


#: Hop dict keys in :func:`repro.net.headers.int_unpack_hop` order, plus
#: the latency :meth:`IntCollector.ingest` annotates each hop with.
_HOP_KEYS = [name for name, _width in reversed(INT_HOP_FIELDS)] + ["latency_ns"]


def _decode_stacks(np, stacks):
    """``(m, k * INT_HOP_BYTES)`` hop-stack bytes -> per row the
    annotated hop dicts and the end-to-end latency, as
    :meth:`IntCollector.ingest` derives them."""
    m = stacks.shape[0]
    k = stacks.shape[1] // INT_HOP_BYTES
    records = np.ascontiguousarray(stacks).reshape(-1, INT_HOP_BYTES)
    fields = {}
    at = 0
    for name, width in INT_HOP_FIELDS:  # big-endian, zero-extended to 64 bits
        wide = np.zeros((records.shape[0], 8), np.uint8)
        wide[:, 8 - width // 8:] = records[:, at:at + width // 8]
        fields[name] = wide.view(">u8").ravel().astype(np.uint64)
        at += width // 8
    wrap = np.uint64(_TS_MODULUS - 1)
    fields["latency_ns"] = (fields["egress_ts"] - fields["ingress_ts"]) & wrap
    if k:
        ingress = fields["ingress_ts"].reshape(m, k)[:, 0]
        egress = fields["egress_ts"].reshape(m, k)[:, -1]
        e2es = ((egress - ingress) & wrap).tolist()
    else:
        e2es = [0] * m
    # Flat per-field lists, not an (m, k, 6) ``tolist()``: the hop dicts
    # hold only ints (the cyclic GC does not track them), and no batch
    # of short-lived nested lists lands in the older GC generations.
    flat = [
        dict(zip(_HOP_KEYS, hop))
        for hop in zip(*(fields[key].tolist() for key in _HOP_KEYS))
    ]
    return [flat[row * k:(row + 1) * k] for row in range(m)], e2es


@dataclass
class PathChange:
    """A flow's hop list differed from the previous packet's."""

    flow: str
    old_path: Tuple[int, ...]
    new_path: Tuple[int, ...]
    packet_index: int  # collector-wide packet ordinal

    def to_dict(self) -> dict:
        return {
            "event": "path_change",
            "flow": self.flow,
            "old_path": list(self.old_path),
            "new_path": list(self.new_path),
            "packet_index": self.packet_index,
        }


@dataclass
class IntIngest:
    """Outcome of one wire-side ingest."""

    record: Optional[dict]  # None if the packet carried no INT shim
    stripped: bytes  # delivery bytes with the shim removed


class IntCollector:
    """Sink-side INT consumer (see module docstring)."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.records: List[dict] = []
        self.path_changes: List[PathChange] = []
        self._flow_paths: Dict[str, Tuple[int, ...]] = {}
        self._packets = self.metrics.counter("int.packets")
        self._hop_records = self.metrics.counter("int.hop_records")
        self._path_change_count = self.metrics.counter("int.path_changes")
        self._mismatch_packets = self.metrics.counter(
            "int.epoch_mismatch_packets"
        )
        self.metrics.gauge("int.flows", fn=self._flow_paths.__len__)
        self._e2e = self.metrics.histogram(
            "int.e2e_latency_ns", LATENCY_BOUNDS_NS
        )
        self._hop_hists: Dict[int, Histogram] = {}
        # Collector-side parse schema: the standard wire types plus
        # the INT shim (a runtime-loaded type on devices).
        self._types: Dict[str, HeaderType] = dict(standard_header_types())
        self._types["int_shim"] = INT_SHIM
        self._linkage = standard_linkage()
        self._linkage.set_selector("int_shim", "orig_ethertype")
        self._linkage.add_link("ethernet", "int_shim", INT_ETHERTYPE)
        for tag in (0x0800, 0x86DD):
            nxt = "ipv4" if tag == 0x0800 else "ipv6"
            self._linkage.add_link("int_shim", nxt, tag)
        # Parse paths learned by the batch walk; the schema above never
        # changes, so they stay valid for the collector's lifetime.
        self._probes: List[tuple] = []

    # -- intake ------------------------------------------------------------

    def ingest(
        self,
        data: bytes,
        node: Optional[str] = None,
        port: Optional[int] = None,
    ) -> IntIngest:
        """Consume one delivered wire packet.

        Parses the INT shim (if any), records its telemetry, and
        returns the packet with the shim stripped and the original
        EtherType restored -- what the edge link would have carried
        had the fabric not been instrumented.
        """
        packet = Packet(data)
        packet.parse_all(self._types, self._linkage)
        if not packet.is_valid("int_shim"):
            return IntIngest(record=None, stripped=data)
        shim = packet.remove_header("int_shim")
        orig = shim.get("orig_ethertype")
        assert isinstance(orig, int)
        packet.write("ethernet.ethertype", orig)
        record = self._observe(
            self._flow_key(packet), int_hop_records(shim), node, port
        )
        return IntIngest(record=record, stripped=packet.emit())

    def ingest_batch(
        self, items: Iterable[Tuple[bytes, Optional[str], Optional[int]]]
    ) -> List[IntIngest]:
        """:meth:`ingest` over ``(data, node, port)`` items, in order.

        The outcome -- records, path-change events, histograms,
        stripped bytes -- is that of one :meth:`ingest` per item, but
        the parse is one batch walk (:func:`repro.dp.columnar.classify`,
        with the collector's own learned probes, so a warm round skips
        the parse graph): rows group by (shim present, ``hop_count``),
        each group's hop
        stacks decode as one big-endian NumPy view and the shim strips
        by slicing.  Without NumPy, or when the walk cannot type some
        row (a short or malformed frame), the batch loops
        :meth:`ingest`, which raises where the per-item calls would.
        """
        from repro.dp import columnar

        items = list(items)
        np = columnar._numpy()
        decoded = None
        if np is not None and items:
            decoded = self._decode_batch(np, columnar, items)
        if decoded is None:
            return [
                self.ingest(data, node=node, port=port)
                for data, node, port in items
            ]
        out = []
        latencies: Dict[int, List[int]] = {}
        e2es = []
        for (data, node, port), row in zip(items, decoded):
            if row is None:
                out.append(IntIngest(record=None, stripped=data))
                continue
            flow, hops, e2e, stripped = row
            for hop in hops:
                latencies.setdefault(hop["switch_id"], []).append(hop["latency_ns"])
            e2es.append(e2e)
            out.append(IntIngest(
                record=self._record(flow, hops, e2e, node, port),
                stripped=stripped,
            ))
        # Per histogram, observations in delivery order, as N ingests.
        for switch_id, values in latencies.items():
            self._hop_histogram(switch_id).observe_many(values)
        self._e2e.observe_many(e2es)
        return out

    def _decode_batch(self, np, columnar, items):
        """Per item ``(flow, annotated hops, e2e latency, stripped
        bytes)``, or ``None`` for a packet without a shim; ``None``
        overall when some row needs the per-packet parser."""
        mat, lengths, _ports, groups, peel = columnar.classify(
            np, [(data, 0) for data, _node, _port in items],
            self._types, self._linkage, "ethernet", self._probes,
        )
        if peel:
            return None
        decoded: List[Optional[tuple]] = [None] * len(items)
        flows: Dict[Tuple[int, int], str] = {}
        for chain, _terminal, row_arrays in groups.values():
            layout = {name: (off, vbytes) for name, _h, off, vbytes in chain}
            if "int_shim" not in layout:
                continue
            rows = np.sort(np.concatenate(row_arrays))
            off, vbytes = layout["int_shim"]
            end = off + INT_SHIM._fixed_bytes + vbytes
            # The shim follows Ethernet, whose last field is the
            # EtherType: the strip keeps everything but the shim, with
            # orig_ethertype (the shim's first two bytes) in its place.
            stripped = columnar.PacketBatch(np, np.concatenate(
                (mat[rows, :off - 2], mat[rows, off:off + 2], mat[rows, end:]),
                axis=1,
            ), lengths[rows] - (end - off), None, None).frames()
            hops, e2es = _decode_stacks(np, mat[rows, end - vbytes:end])
            if "ipv4" in layout:
                at = layout["ipv4"][0] + 12  # src_addr, then dst_addr
                addrs = np.ascontiguousarray(mat[rows, at:at + 8])
                row_flows = []
                for pair in map(tuple, addrs.view(">u4").reshape(-1, 2).tolist()):
                    flow = flows.get(pair)
                    if flow is None:
                        flow = flows[pair] = (
                            f"{format_ipv4(pair[0])}->{format_ipv4(pair[1])}"
                        )
                    row_flows.append(flow)
            else:  # keyed by the restored EtherType
                orig = mat[rows, off].astype(np.int64) << 8 | mat[rows, off + 1]
                row_flows = [f"ethertype:{value:#06x}" for value in orig.tolist()]
            for index, data, flow, row_hops, e2e in zip(
                rows.tolist(), stripped, row_flows, hops, e2es
            ):
                decoded[index] = (flow, row_hops, e2e, data)
        return decoded

    def observe_strip(
        self, packet: Packet, hops: List[dict], node: Optional[str] = None
    ) -> dict:
        """Device-side intake: ``pop_int`` already removed the shim and
        hands over the decoded hop records."""
        return self._observe(self._flow_key(packet), hops, node, None)

    # -- analytics ---------------------------------------------------------

    def _flow_key(self, packet: Packet) -> str:
        if packet.is_valid("ipv4"):
            src = packet.read("ipv4.src_addr")
            dst = packet.read("ipv4.dst_addr")
            assert isinstance(src, int) and isinstance(dst, int)
            return f"{format_ipv4(src)}->{format_ipv4(dst)}"
        ethertype = packet.read("ethernet.ethertype")
        assert isinstance(ethertype, int)
        return f"ethertype:{ethertype:#06x}"

    def _observe(
        self,
        flow: str,
        hops: List[dict],
        node: Optional[str],
        port: Optional[int],
    ) -> dict:
        annotated = []
        for hop in hops:
            latency = _ts_delta(hop["ingress_ts"], hop["egress_ts"])
            self._hop_histogram(hop["switch_id"]).observe(latency)
            annotated.append(dict(hop, latency_ns=latency))
        e2e = (
            _ts_delta(hops[0]["ingress_ts"], hops[-1]["egress_ts"])
            if hops
            else 0
        )
        self._e2e.observe(e2e)
        return self._record(flow, annotated, e2e, node, port)

    def _record(
        self,
        flow: str,
        hops: List[dict],
        e2e: int,
        node: Optional[str],
        port: Optional[int],
    ) -> dict:
        """Counters, path-change tracking and the record of one packet
        whose ``hops`` carry ``latency_ns`` (histograms are the
        caller's)."""
        index = int(self._packets.value)
        self._packets.inc()
        self._hop_records.inc(len(hops))
        path = tuple(hop["switch_id"] for hop in hops)
        epochs = sorted({hop["dp_epoch"] for hop in hops})
        mismatch = len(epochs) > 1
        if mismatch:
            self._mismatch_packets.inc()

        previous = self._flow_paths.get(flow)
        if previous is not None and previous != path:
            self._path_change_count.inc()
            self.path_changes.append(
                PathChange(flow, previous, path, packet_index=index)
            )
        self._flow_paths[flow] = path

        record = {
            "flow": flow,
            "node": node,
            "port": port,
            "path": list(path),
            "hops": hops,
            "e2e_latency_ns": e2e,
            "epochs": epochs,
            "epoch_mismatch": mismatch,
        }
        self.records.append(record)
        return record

    def _hop_histogram(self, switch_id: int) -> Histogram:
        hist = self._hop_hists.get(switch_id)
        if hist is None:
            hist = self.metrics.histogram(
                "int.hop_latency_ns", LATENCY_BOUNDS_NS, switch=str(switch_id)
            )
            self._hop_hists[switch_id] = hist
        return hist

    # -- views -------------------------------------------------------------

    def flows(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self._flow_paths)

    def epoch_evidence(self) -> List[dict]:
        """Every packet that carried more than one dataplane epoch --
        the in-band trace of a fabric mid-update."""
        return [r for r in self.records if r["epoch_mismatch"]]

    # -- export ------------------------------------------------------------

    def to_dicts(self) -> List[dict]:
        """Packet records followed by path-change events (the jsonl
        export body)."""
        return list(self.records) + [
            change.to_dict() for change in self.path_changes
        ]

    def export_jsonl(self, dest: PathOrFile) -> int:
        """Dump records + events as JSON lines; returns the count."""
        return write_jsonl(dest, self.to_dicts())

    def latency_quantile(
        self, q: float, switch_id: Optional[int] = None
    ) -> Optional[float]:
        """Estimated latency quantile in ns -- end-to-end by default,
        per-hop when ``switch_id`` is given.  Shares the bucket-walk
        implementation with :meth:`Histogram.quantile`, so health rules
        and INT analytics agree on the math."""
        if switch_id is None:
            return self._e2e.quantile(q)
        hist = self._hop_hists.get(switch_id)
        return hist.quantile(q) if hist is not None else None

    def summary(self) -> dict:
        """Aggregate view backing ``ipbm-ctl int report``."""
        return {
            "packets": int(self._packets.value),
            "hop_records": int(self._hop_records.value),
            "flows": {
                flow: list(path) for flow, path in self._flow_paths.items()
            },
            "path_changes": len(self.path_changes),
            "epoch_mismatch_packets": int(self._mismatch_packets.value),
            "e2e_latency_ns": {
                "p50": self._e2e.quantile(0.50),
                "p99": self._e2e.quantile(0.99),
            },
            "hop_latency_p99_ns": {
                str(switch): hist.quantile(0.99)
                for switch, hist in sorted(self._hop_hists.items())
            },
        }
