"""Evaluation artifacts shared by the pytest benchmarks and examples.

One module per paper artifact:

* :mod:`repro.bench.table1`  -- compile/load time comparison
* :mod:`repro.bench.mapping` -- Fig. 4 TSP mappings
* :mod:`repro.bench.report`  -- plain-text table rendering

plus the scenario builders and the fleet soak:

* :mod:`repro.bench.scenarios` -- (switch, use case) devices, their
  traces, the INT line fabric and the isolated-node fleet
* :mod:`repro.bench.soak`      -- ``python -m repro.bench.soak``

Performance is measured by ``perf/`` (see ``perf/README.md``), not here.
"""

from importlib import import_module

#: Public name -> defining submodule, resolved on first access so that
#: importing one artifact module (``repro.bench.mapping``) does not drag
#: in the controller, both switches and the trace generators.  The
#: function ``table1`` is not here: as a package attribute that name is
#: the submodule (``from repro.bench.table1 import table1``).
_EXPORTS = {
    "CASES": "scenarios",
    "SWITCHES": "scenarios",
    "Table1Row": "table1",
    "USE_CASES": "table1",
    "case_trace": "scenarios",
    "fig4_mapping": "mapping",
    "format_mapping": "mapping",
    "format_table": "report",
    "hardware_flow_model": "table1",
    "make_ipsa": "scenarios",
    "make_ipsa_controller": "scenarios",
    "make_pisa": "scenarios",
    "make_switch": "scenarios",
    "measure_bmv2_flow": "table1",
    "measure_ipbm_flow": "table1",
}

__all__ = sorted([*_EXPORTS, "table1"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
