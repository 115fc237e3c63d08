"""NetMaster reproduction: habit-driven scheduling of smartphone network
activities for energy saving (Zhang et al., ICPP 2014).

Public API tour
---------------

Trace substrate (replaces the paper's on-phone collection)::

    from repro import generate_cohort, generate_volunteers
    cohort = generate_cohort(21, seed=2014)     # the 8 profiling users

Habit mining::

    from repro import HabitModel
    model = HabitModel.fit(cohort[0])
    slots = model.user_slots(weekend=False)     # predicted user-active slots

The middleware itself::

    from repro import NetMaster, NetMasterConfig
    nm = NetMaster(NetMasterConfig())
    nm.train(history_trace)
    execution = nm.execute_day(held_out_day)

Policy comparison and paper experiments::

    from repro.evaluation import fig7
    from repro.evaluation.reporting import format_fig7
    print(format_fig7(fig7()))

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for paper-vs-measured numbers.
"""

from repro.baselines import (
    BatchPolicy,
    DelayBatchPolicy,
    DelayPolicy,
    NaivePolicy,
    NetMasterPolicy,
    OraclePolicy,
    PolicyOutcome,
    SchedulingPolicy,
)
from repro.core import (
    DayExecution,
    DayPlan,
    ExponentialSleep,
    FixedSleep,
    NetMaster,
    NetMasterConfig,
    NetMasterScheduler,
    ProfitParams,
    RandomSleep,
    knapsack_fptas,
    solve_overlapped,
)
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    apply_faults,
)
from repro.habits import (
    DataSufficiency,
    FixedDelta,
    HabitModel,
    ImpactBasedDelta,
    SlotPrediction,
    SpecialAppRegistry,
    WeekdayWeekendDelta,
    pearson,
    prediction_accuracy,
)
from repro.runtime import (
    ParallelRunner,
    PolicyTask,
    PolicyTaskError,
    TraceCache,
    cache_stats,
    clear_cache,
    configure_cache,
    run_policy_tasks,
)
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    metrics,
    tracer,
)
from repro.radio import (
    FullTail,
    LinkModel,
    RadioPowerModel,
    TruncatedTail,
    lte_model,
    simulate,
    wcdma_model,
)
from repro.traces import (
    AppCatalog,
    AppModel,
    AppUsage,
    NetworkActivity,
    ScreenSession,
    Trace,
    TraceGenerator,
    TraceStore,
    UserProfile,
    default_catalog,
    default_profiles,
    generate_cohort,
    generate_volunteers,
    volunteer_profiles,
)

__version__ = "1.0.0"

__all__ = [
    "AppCatalog",
    "AppModel",
    "AppUsage",
    "BatchPolicy",
    "CircuitBreaker",
    "DataSufficiency",
    "DayExecution",
    "DayPlan",
    "DelayBatchPolicy",
    "DelayPolicy",
    "ExponentialSleep",
    "FaultInjector",
    "FaultPlan",
    "FixedDelta",
    "FixedSleep",
    "FullTail",
    "HabitModel",
    "ImpactBasedDelta",
    "LinkModel",
    "MetricsRegistry",
    "NaivePolicy",
    "NetMaster",
    "NetMasterConfig",
    "NetMasterPolicy",
    "NetMasterScheduler",
    "NetworkActivity",
    "OraclePolicy",
    "ParallelRunner",
    "PolicyOutcome",
    "PolicyTask",
    "PolicyTaskError",
    "ProfitParams",
    "RadioPowerModel",
    "RandomSleep",
    "RetryPolicy",
    "SchedulingPolicy",
    "ScreenSession",
    "SlotPrediction",
    "SpecialAppRegistry",
    "Trace",
    "TraceCache",
    "Tracer",
    "TraceGenerator",
    "TraceStore",
    "TruncatedTail",
    "UserProfile",
    "WeekdayWeekendDelta",
    "apply_faults",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "default_catalog",
    "default_profiles",
    "generate_cohort",
    "generate_volunteers",
    "knapsack_fptas",
    "lte_model",
    "metrics",
    "pearson",
    "prediction_accuracy",
    "run_policy_tasks",
    "simulate",
    "solve_overlapped",
    "tracer",
    "volunteer_profiles",
    "wcdma_model",
    "__version__",
]
