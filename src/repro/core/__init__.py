"""The paper's primary contribution: the trial-and-failure protocol.

Layout:

* :mod:`repro.core.engine` -- the discrete-event wormhole simulator: one
  round of launching worms with fixed delays/wavelengths and resolving
  every (link, wavelength) conflict through the coupler kernels, with the
  exact elimination/truncation semantics of Section 1.1;
* :mod:`repro.core.schedule` -- delay-range schedules ``Delta_t``,
  including the paper's Section-2.1 choice and practical variants;
* :mod:`repro.core.protocol` -- the round loop of Section 1.3
  (launch, acknowledge, deactivate, repeat) with ideal or simulated
  acknowledgements;
* :mod:`repro.core.witness` -- witness trees (Figure 4) extracted from
  real collision logs, with validity checks for Definitions 2.1/2.3 and
  Claim 2.6;
* :mod:`repro.core.bounds` -- every bound formula of the paper
  (alpha, beta, the Main Theorem 1.1-1.3 upper/lower bounds, and the
  application Theorems 1.5-1.7);
* :mod:`repro.core.stats` -- congestion trajectories and survivor curves
  (the observables Lemmas 2.4 and 2.10 are about).
"""

from repro.core.records import (
    CollisionEvent,
    CollisionKind,
    RoundResult,
    RoundRecord,
    ProtocolResult,
)
from repro.core.engine import (
    RoundCall,
    RoutingEngine,
    run_round,
    run_round_batch,
)
from repro.core.schedule import (
    ScheduleContext,
    DelaySchedule,
    PaperSchedule,
    PaperShortcutSchedule,
    GeometricSchedule,
    FixedSchedule,
    ZeroDelaySchedule,
)
from repro.core.protocol import (
    ProtocolConfig,
    TrialAndFailureProtocol,
    route_collection,
    run_protocol_batch,
)
from repro.core.witness import (
    WitnessNode,
    build_witness_tree,
    blocking_graphs,
    validate_witness_tree,
    check_blocking_forest,
)
from repro.core import bounds
from repro.core.stats import (
    congestion_history,
    survivor_history,
    failure_breakdown,
    rounds_to_completion,
    result_from_trace_file,
)

__all__ = [
    "CollisionEvent",
    "CollisionKind",
    "RoundResult",
    "RoundRecord",
    "ProtocolResult",
    "RoundCall",
    "RoutingEngine",
    "run_round",
    "run_round_batch",
    "ScheduleContext",
    "DelaySchedule",
    "PaperSchedule",
    "PaperShortcutSchedule",
    "GeometricSchedule",
    "FixedSchedule",
    "ZeroDelaySchedule",
    "ProtocolConfig",
    "TrialAndFailureProtocol",
    "route_collection",
    "run_protocol_batch",
    "WitnessNode",
    "build_witness_tree",
    "blocking_graphs",
    "validate_witness_tree",
    "check_blocking_forest",
    "bounds",
    "congestion_history",
    "survivor_history",
    "failure_breakdown",
    "rounds_to_completion",
    "result_from_trace_file",
]
