"""The columnar fast path is strictly optional.

With NumPy absent -- or shut off via ``REPRO_FORCE_NO_NUMPY=1``, which
is how a NumPy-less interpreter is emulated on a box that has it --
the batch front door must transparently run the scalar interpreter
with identical results, and the module boundary must raise a clear
ImportError naming the ``numpy>=1.24`` bound from ``pyproject.toml``.

CI runs this file on a matrix leg with NumPy genuinely uninstalled, so
nothing here (directly or transitively) may import NumPy at module
scope: ``repro.workloads.traces`` is off-limits (``repro.bench.
scenarios`` reaches its generators through the NumPy-gated
``repro.workloads`` package); packets come from
``repro.workloads.builders`` and the switch from the controller
directly.
"""

import pytest

from repro.dp import columnar
from repro.programs import base_rp4_source, populate_base_tables
from repro.runtime.controller import Controller
from repro.workloads.builders import ipv4_packet


def _base_switch():
    controller = Controller()
    controller.load_base(base_rp4_source())
    populate_base_tables(controller.switch.tables)
    return controller.switch


def _trace(n):
    return [
        (ipv4_packet("10.1.0.1", "10.2.0.1", sport=1024 + i), 0)
        for i in range(n)
    ]


def _wire(outputs):
    return [
        None if out is None else (out.port, out.data, out.to_cpu)
        for out in outputs
    ]


def test_hint_names_the_bound_and_the_fallback():
    assert "numpy>=1.24" in columnar.NUMPY_HINT
    assert "scalar" in columnar.NUMPY_HINT


def test_require_numpy_raises_clear_importerror(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_NO_NUMPY", "1")
    assert columnar._numpy() is None
    with pytest.raises(ImportError, match=r"numpy>=1\.24"):
        columnar.require_numpy()


def test_batch_falls_back_to_scalar(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_NO_NUMPY", "1")
    trace = _trace(16)

    fast = _base_switch()
    # The flag stays on -- the gate is NumPy availability, not config.
    assert fast.dp.columnar_enabled
    assert columnar.try_run_batch(fast.dp, trace) is None

    scalar = _base_switch()
    scalar.dp.columnar_enabled = False
    batch = fast.inject_batch(trace)
    expected = scalar.inject_batch(trace)
    assert _wire(list(batch)) == _wire(list(expected))
    assert fast.packets_in == scalar.packets_in
    assert fast.packets_out == scalar.packets_out
    assert fast.packets_dropped == scalar.packets_dropped
    assert dict(fast.drop_reasons) == dict(scalar.drop_reasons)
