"""Simulator of joint CDN and browser-peer relay web content delivery.

Peers arrive by a Poisson process, stay for heavy-tailed sessions, and
fetch one content item each. When a regional in-network failure cuts a
peer off from the server, delivery falls back to relay peers chosen by a
pluggable strategy; the path-aware strategy partitions candidates by
locality, filters on history and workload, and ranks by estimated
time-to-stay.
"""

from relaysim.churn import (SessionModel, TimeToStayModel, calibrate_pareto,
                            estimate_time_to_stay)
from relaysim.engine import (MetricsReport, RequestOutcome, Simulation, collect_metrics,
                             run)
from relaysim.io import SweepSpec, parse_trace, run_sweep, run_trace
from relaysim.model import (ConfigError, ContentItem, Peer, SimConfig, TraceRecord,
                            validate_config)
from relaysim.netsim import CityTable, FailureScenario, can_connect, inject_failure
from relaysim.selection import (RelayCandidateList, generate_relay_list,
                                solve_exact, solve_greedy)

__version__ = "0.1.0"

__all__ = [
    "CityTable", "ConfigError", "ContentItem", "FailureScenario", "MetricsReport",
    "Peer", "RelayCandidateList", "RequestOutcome", "SessionModel", "SimConfig",
    "Simulation", "SweepSpec", "TimeToStayModel", "TraceRecord", "calibrate_pareto",
    "can_connect", "collect_metrics", "estimate_time_to_stay", "generate_relay_list",
    "inject_failure", "parse_trace", "run", "run_sweep", "run_trace", "solve_exact",
    "solve_greedy", "validate_config",
]
