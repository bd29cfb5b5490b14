"""repro.dp: the shared dataplane execution core.

Used by both :class:`repro.ipsa.switch.IpsaSwitch` and
:class:`repro.pisa.switch.PisaSwitch`:

* :mod:`repro.dp.batch`     -- ``PacketBatch``, one batch form device to device
* :mod:`repro.dp.plan`      -- commit-time compiled stage plans
* :mod:`repro.dp.core`      -- per-device plan cache + invalidation
* :mod:`repro.dp.exec`      -- the single parameterized execution loop
* :mod:`repro.dp.hooks`     -- no-op / tracing / profiling instrumentation
* :mod:`repro.dp.frontdoor` -- shared inject / inject_multi / inject_batch
"""

from repro.dp.core import DataplaneCore, IpsaCore, PisaCore
from repro.dp.exec import PipelineOutcome, run_ipsa_pipeline, run_tsp_plan
from repro.dp.frontdoor import (
    BatchResult,
    PortOut,
    inject,
    inject_batch,
    inject_multi,
)
from repro.dp.hooks import (
    NULL_HOOKS,
    ExecHooks,
    ProfileHooks,
    TraceHooks,
    resolve_hooks,
)
from repro.dp.plan import (
    CompiledArm,
    DevicePlan,
    StagePlan,
    TspPlan,
    compile_fixed_plan,
    compile_ipsa_plan,
)

__all__ = [
    "BatchResult",
    "CompiledArm",
    "DataplaneCore",
    "DevicePlan",
    "ExecHooks",
    "IpsaCore",
    "NULL_HOOKS",
    "PipelineOutcome",
    "PisaCore",
    "PortOut",
    "ProfileHooks",
    "StagePlan",
    "TraceHooks",
    "TspPlan",
    "compile_fixed_plan",
    "compile_ipsa_plan",
    "inject",
    "inject_batch",
    "inject_multi",
    "resolve_hooks",
    "run_ipsa_pipeline",
    "run_tsp_plan",
]
