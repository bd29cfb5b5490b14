"""One batch form from fabric ingress to exit: :class:`PacketBatch`.

The paper's pipeline has no deparser between stages and carries parse
results forward (PAPER.md Sec. 2); a fabric carries its packets the
same way between *devices*.  A :class:`PacketBatch` is a ``uint8``
matrix with one packet per row, padded to at least its longest row,
plus one entry per row in each of the columns ``lengths``, ``ports``
and ``index``, and on a device's output ``to_cpu``:

* ``ports`` is the ingress port going into a device and the egress
  port coming out of it;
* ``index`` is the caller's slot for the row, carried through a device
  unchanged, so a device's output -- the rows that survived, in input
  order -- says which input each row came from.

``bytes`` exist only where a packet enters or leaves the batch form:
:meth:`from_frames` at ingress, :meth:`frames` at an exit or a shard
frame, and the peeled rows the columnar dataplane hands to the scalar
loop.  A device never writes the batch it was given.

NumPy is optional: without it (or with ``REPRO_FORCE_NO_NUMPY=1``) the
same class holds a list of ``bytes`` in ``mat`` and plain lists in the
other columns, and every method keeps its meaning.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

try:  # pragma: no cover - exercised via REPRO_FORCE_NO_NUMPY in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def _numpy():
    """The NumPy module, or ``None`` (absent / explicitly disabled)."""
    if os.environ.get("REPRO_FORCE_NO_NUMPY") == "1":
        return None
    return _np


def _distinct(np, values, counts: bool = False):
    """Sorted distinct values of a 1-D array, optionally with how often
    each occurs: ``np.unique`` as a sort and a neighbour diff.
    ``np.unique`` itself lazily imports ``numpy.ma`` on first use
    (about 1 MB of resident heap the fast path never needs)."""
    ordered = np.sort(values)
    # first[i]: ordered[i] opens a run; the extra last slot closes the final one.
    first = np.ones(ordered.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
    distinct = ordered[first[:-1]]
    if not counts:
        return distinct
    bounds = np.flatnonzero(first)
    return distinct, bounds[1:] - bounds[:-1]


class PacketBatch:
    """Packets travelling together: a byte matrix and its row columns.

    Row ``r`` holds the packet ``mat[r, :lengths[r]]``.  ``np`` is the
    NumPy module backing the columns, or ``None`` for the list form.
    """

    __slots__ = ("np", "mat", "lengths", "ports", "index", "to_cpu")

    def __init__(self, np, mat, lengths, ports, index, to_cpu=None) -> None:
        self.np = np
        self.mat = mat
        self.lengths = lengths
        self.ports = ports
        self.index = index
        self.to_cpu = to_cpu

    @classmethod
    def from_frames(cls, frames: Sequence[bytes], ports, index=None,
                    to_cpu=None) -> "PacketBatch":
        """Wire frames as a batch (``index`` defaults to ``0..n-1``):
        one ``join`` of every frame and, for ragged rows, one masked
        scatter of it into the zero-padded matrix."""
        np = _numpy()
        n = len(frames)
        if np is None:
            return cls(
                None, list(frames), [len(f) for f in frames], list(ports),
                list(range(n) if index is None else index),
                None if to_cpu is None else list(to_cpu),
            )
        lengths = np.fromiter(map(len, frames), np.int64, n)
        width = int(lengths.max()) if n else 0
        blob = np.frombuffer(b"".join(frames), np.uint8)
        if blob.size == n * width:  # every row is the longest
            mat = blob.reshape(n, width)
        else:
            mat = np.zeros((n, width), np.uint8)
            mat[np.arange(width) < lengths[:, None]] = blob
        return cls(
            np, mat, lengths, np.array(ports, np.int64),
            np.arange(n) if index is None else np.array(index, np.int64),
            None if to_cpu is None else np.array(to_cpu, bool),
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def frames(self) -> List[bytes]:
        """Each row's packet as ``bytes``, in row order."""
        if self.np is None:
            return list(self.mat)
        stride = self.mat.shape[1]
        if stride == 0:
            return [b""] * len(self)
        image = self.mat.tobytes()
        return [
            image[start:start + length]
            for start, length in zip(
                range(0, stride * len(self), stride), self.lengths.tolist()
            )
        ]

    def tolist(self, column: str = "index") -> list:
        """One column (``index``, ``ports``, ``lengths``, ``to_cpu``)
        as a list of Python scalars."""
        values = getattr(self, column)
        return values if self.np is None else values.tolist()

    def pairs(self) -> List[Tuple[bytes, int]]:
        """``(data, port)`` per row: the scalar loop's trace."""
        return list(zip(self.frames(), self.tolist("ports")))

    def take(self, rows) -> "PacketBatch":
        """The batch of ``rows`` (positions, in the order given)."""
        if self.np is not None:
            return PacketBatch(
                self.np, self.mat[rows], self.lengths[rows], self.ports[rows],
                self.index[rows],
                None if self.to_cpu is None else self.to_cpu[rows],
            )
        columns = [
            None if column is None else [column[r] for r in rows]
            for column in (self.mat, self.lengths, self.ports, self.index,
                           self.to_cpu)
        ]
        return PacketBatch(None, *columns)

    def at_port(self, port: int) -> "PacketBatch":
        """The same rows, every one entering at ``port``."""
        np = self.np
        ports = [port] * len(self) if np is None else np.full(
            len(self), port, np.int64
        )
        return PacketBatch(np, self.mat, self.lengths, ports, self.index)

    def split(self, keys) -> List[Tuple[int, "PacketBatch"]]:
        """``(key, rows with that key)`` per distinct ``keys[r]``, in
        order of each key's first row; rows keep their order."""
        np = self.np
        if np is None:
            groups: dict = {}
            for row, key in enumerate(keys):
                groups.setdefault(key, []).append(row)
            return [(key, self.take(rows)) for key, rows in groups.items()]
        keys = np.asarray(keys)
        if len(keys) == 0:
            return []
        first = keys[0]
        if not (keys != first).any():
            return [(int(first), self)]
        groups = []
        for key in _distinct(np, keys).tolist():
            rows = np.flatnonzero(keys == key)
            groups.append((int(rows[0]), key, rows))
        groups.sort()
        return [(key, self.take(rows)) for _first, key, rows in groups]

    @staticmethod
    def merge(parts: Sequence["PacketBatch"]):
        """One batch of every part's rows in ascending ``index``, and
        the part each index came from (``None`` for a single part)."""
        if len(parts) == 1:
            return parts[0], None
        origin = {
            index: k for k, part in enumerate(parts) for index in part.tolist()
        }
        np = parts[0].np
        columns = ("lengths", "ports", "index")
        if np is None:
            whole = PacketBatch(None, *(
                [value for part in parts for value in getattr(part, name)]
                for name in ("mat",) + columns
            ))
            order = sorted(range(len(whole)), key=whole.index.__getitem__)
        else:
            mat = np.zeros(
                (sum(map(len, parts)), max(p.mat.shape[1] for p in parts)),
                np.uint8,
            )
            at = 0
            for part in parts:
                mat[at:at + len(part), :part.mat.shape[1]] = part.mat
                at += len(part)
            whole = PacketBatch(np, mat, *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in columns
            ))
            order = np.argsort(whole.index, kind="stable")
        return whole.take(order), origin
