"""In-situ engine: one execution core, shared collection, workloads.

Five layers (bottom-up):

* **Workload** (:mod:`repro.engine.workload`) — the
  :class:`SimulationApp` protocol plus adapters (:class:`LuleshApp`,
  :class:`WdMergerApp`, :class:`ReplayApp`) that make any iterative
  simulation engine-drivable in ~50 lines.
* **Collection** (:mod:`repro.engine.collection`) —
  :class:`SharedCollector` groups analyses by ``(provider, spatial,
  temporal)`` so each declared data window is sampled exactly once per
  matching iteration, however many analyses subscribe to it.
* **Scheduling** (:mod:`repro.engine.scheduler`) —
  :class:`AnalysisScheduler` dispatches every active analysis each
  iteration with per-analysis early-stop state and an
  ``any``/``all``/``quorum`` termination policy.
* **Execution** (:mod:`repro.engine.driver`) —
  :class:`ExecutionDriver` runs the ONE main loop every engine shares
  (step → collect → dispatch → collective stop → result assembly)
  behind the :class:`Executor` seam: the serial engine plugs in the
  trivial one-rank :class:`LocalExecutor`; the distributed engine
  plugs in its shard-reducing backends.  The optional
  :class:`~repro.engine.cadence.CadenceController`
  (:mod:`repro.engine.cadence`) adapts the temporal sampling stride
  once fits converge — off by default, preserving bit-identical
  results.
* **Engines** — :class:`InSituEngine` (serial) and
  :class:`DistributedEngine` (rank-parallel over ``"simcomm"`` /
  ``"multiprocessing"`` backends) are thin façades over the driver;
  no caller-facing API changed when the loop was unified.

The legacy :class:`~repro.core.region.Region` and the ``td_*`` C-style
facade remain as thin compatibility wrappers over the scheduler.
"""

from repro.engine.cadence import CadenceController, CadencePolicy
from repro.engine.collection import CollectionGroup, SharedCollector
from repro.engine.distributed import (
    BACKEND_MULTIPROCESSING,
    BACKEND_SIMCOMM,
    BACKENDS,
    DistributedEngine,
    DistributedResult,
    MultiprocessExecutor,
    RankCollector,
    SimCommExecutor,
)
from repro.engine.faults import (
    KILL_EXIT_CODE,
    DelayFault,
    FaultPlan,
    KillFault,
    RecoveryEvent,
    as_fault_plan,
)
from repro.engine.driver import (
    EngineResult,
    ExecutionDriver,
    Executor,
    GroupPlan,
    LocalExecutor,
    plan_groups,
    progress_snapshot,
)
from repro.engine.scheduler import (
    POLICIES,
    POLICY_ALL,
    POLICY_ANY,
    POLICY_QUORUM,
    AnalysisScheduler,
    AnalysisState,
    InSituEngine,
)
from repro.engine.workload import (
    LuleshApp,
    ReplayApp,
    SimulationApp,
    WdMergerApp,
    as_simulation_app,
    register_adapter,
    replay_provider,
)

__all__ = [
    "BACKEND_MULTIPROCESSING",
    "BACKEND_SIMCOMM",
    "BACKENDS",
    "POLICIES",
    "POLICY_ALL",
    "POLICY_ANY",
    "POLICY_QUORUM",
    "AnalysisScheduler",
    "AnalysisState",
    "CadenceController",
    "CadencePolicy",
    "CollectionGroup",
    "DelayFault",
    "DistributedEngine",
    "DistributedResult",
    "EngineResult",
    "ExecutionDriver",
    "Executor",
    "FaultPlan",
    "GroupPlan",
    "InSituEngine",
    "KILL_EXIT_CODE",
    "KillFault",
    "LocalExecutor",
    "LuleshApp",
    "MultiprocessExecutor",
    "RankCollector",
    "RecoveryEvent",
    "ReplayApp",
    "SharedCollector",
    "SimCommExecutor",
    "SimulationApp",
    "WdMergerApp",
    "as_fault_plan",
    "as_simulation_app",
    "plan_groups",
    "progress_snapshot",
    "register_adapter",
    "replay_provider",
]
