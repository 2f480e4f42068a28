"""Simulator of joint CDN and browser-peer relay web content delivery.

Peers arrive by a Poisson process, stay for heavy-tailed sessions, and
fetch one content item each. When a regional in-network failure cuts a
peer off from the server, delivery falls back to relay peers chosen by a
pluggable strategy; the path-aware strategy partitions candidates by
locality, filters on history and workload, and ranks by estimated
time-to-stay.
"""

from relaysim.churn import calibrate_pareto, estimate_time_to_stay
from relaysim.engine import (MetricsReport, Outcomes, Population, RequestOutcome,
                             Simulation, collect_metrics, draw_candidates, run)
from relaysim.io import SweepSpec, parse_trace, run_sweep, run_trace
from relaysim.model import ConfigError, SimConfig, TraceColumns, validate_config
from relaysim.netsim import FailureScenario, inject_failure
from relaysim.selection import generate_relay_list, solve_exact, solve_greedy

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "FailureScenario", "MetricsReport", "Outcomes", "Population",
    "RequestOutcome", "SimConfig", "Simulation", "SweepSpec", "TraceColumns",
    "calibrate_pareto", "collect_metrics", "draw_candidates",
    "estimate_time_to_stay", "generate_relay_list", "inject_failure", "parse_trace", "run",
    "run_sweep", "run_trace", "solve_exact", "solve_greedy", "validate_config",
]
