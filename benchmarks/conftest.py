"""Shared fixtures for the evaluation benchmarks.

Scenario construction lives in :mod:`repro.bench.scenarios` (shared
with the parity tests and ``ipbm-ctl profile``); this module
keeps the benchmark-suite-facing names and adds a graceful degrade:
when the pytest-benchmark plugin is missing (not installed, or
disabled with ``-p no:benchmark``), the suite skips instead of
erroring on the unknown ``benchmark`` fixture.
"""

import pytest

from repro.bench.scenarios import (
    CASE_ARTIFACTS,
    make_ipsa_controller,
    make_pisa,
)
from repro.compiler.rp4bc import compile_base
from repro.programs import base_rp4_source


class _BenchmarkFallback:
    """Stand-in registered only when pytest-benchmark is absent."""

    @pytest.fixture
    def benchmark(self):
        pytest.skip("pytest-benchmark is not available")


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkFallback(), "benchmark-fallback")


@pytest.fixture(scope="session")
def base_design():
    return compile_base(base_rp4_source())


def make_ipsa_for_case(case):
    """An IPSA controller with the base design plus one use case live."""
    return make_ipsa_controller(case)


def make_pisa_for_case(case):
    """A PISA switch running the full updated P4 variant."""
    return make_pisa(case)
