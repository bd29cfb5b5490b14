"""repro.dp: the device and its shared dataplane execution core.

:class:`~repro.dp.frontdoor.Device` is what every switch has --
counters, metrics, instruments, tables and the front door.
:class:`repro.ipsa.switch.IpsaSwitch` and
:class:`repro.pisa.switch.PisaSwitch` add only their configuration
path and hand the core their plan compiler; the plan it compiles says
the rest (front parser or not, TM or not, deparser or not):

* :mod:`repro.dp.batch`     -- ``PacketBatch``, one batch form device to device
* :mod:`repro.dp.plan`      -- commit-time compiled stage plans
* :mod:`repro.dp.core`      -- per-device plan cache + invalidation
* :mod:`repro.dp.exec`      -- the single parameterized execution loop
* :mod:`repro.dp.hooks`     -- no-op / tracing / profiling instrumentation
* :mod:`repro.dp.frontdoor` -- ``Device``: inject / inject_multi / inject_batch
"""

from repro.dp.core import DataplaneCore
from repro.dp.exec import PipelineOutcome, run_egress, run_pipeline, run_tsp_plan
from repro.dp.frontdoor import BatchResult, Device, PortOut
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
    "Device",
    "DevicePlan",
    "ExecHooks",
    "NULL_HOOKS",
    "PipelineOutcome",
    "PortOut",
    "ProfileHooks",
    "StagePlan",
    "TraceHooks",
    "TspPlan",
    "compile_fixed_plan",
    "compile_ipsa_plan",
    "resolve_hooks",
    "run_egress",
    "run_pipeline",
    "run_tsp_plan",
]
