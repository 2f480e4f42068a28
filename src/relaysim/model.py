"""Domain types and validated configuration for the delivery simulator.

Everything else in the package builds on the types here: peers as
columns (PeerColumns), access traces (TraceColumns, a checked table that
parse_trace fills and run_trace reads), and the central SimConfig whose
defaults describe the reference scenario (5000 peers across five cities,
Poisson arrivals, heavy-tailed sessions, one failed region).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from relaysim.churn import DEFAULT_ARRIVALS_PER_MIN

# Reference city set with (lat, lon) in degrees.
DEFAULT_CITIES: dict[str, tuple[float, float]] = {
    "Beijing": (39.90, 116.40),
    "Shanghai": (31.23, 121.47),
    "Guangzhou": (23.13, 113.26),
    "Chengdu": (30.57, 104.07),
    "Wuhan": (30.59, 114.31),
}

# Uplink capacity profile: kbps bucket -> probability mass.
DEFAULT_UPLINK_PROFILE: dict[float, float] = {
    512.0: 0.20,
    1024.0: 0.40,
    3072.0: 0.25,
    10240.0: 0.15,
}

STRATEGIES = ("no-relay", "random", "path-aware")
WORKLOAD_MODES = ("utilization", "count")

# Rates within this many kbps of each other are equal in the capacity ledger.
RATE_EPS = 1e-9


class ConfigError(ValueError):
    """Raised when a configuration fails validation; carries all violations."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class PeerColumns(NamedTuple):
    """The peers' attributes as columns, one entry per peer in the order
    drawn or listed: int64 ids, city codes (into cities) and isp; float64
    kbps capacities and join times and session durations in seconds."""

    cities: tuple[str, ...]
    ids: np.ndarray
    city: np.ndarray
    isp: np.ndarray
    uplink: np.ndarray
    downlink: np.ndarray
    join: np.ndarray
    duration: np.ndarray

    def in_city(self, name: str | None) -> np.ndarray:
        """Mask of the peers in the named city; None matches none."""
        return np.array([c == name for c in self.cities], dtype=bool)[self.city]


class CapacityError(RuntimeError):
    """Capacity ledger invariant broken; indicates an engine bug."""


@dataclass
class RelayLedger:
    """Per-run relay capacity, keyed by relay row in the Population, not
    peer id, and kept sparse: a relay without an entry serves no transfer,
    and commit() and release() drop an entry once it returns to zero."""

    workload: dict[int, int] = field(default_factory=dict)
    in_use_kbps: dict[int, float] = field(default_factory=dict)

    def uplink_free_kbps(self, relay: int, uplink_kbps: float) -> float:
        return max(0.0, uplink_kbps - self.in_use_kbps.get(relay, 0.0))

    def commit(self, relay: int, uplink_kbps: float, kbps: float) -> None:
        """Start a transfer on a relay (row, uplink); over-commit is a bug."""
        if kbps <= 0:
            raise ValueError("committed rate must be positive")
        in_use = self.in_use_kbps.get(relay, 0.0)
        if in_use + kbps > uplink_kbps + RATE_EPS:
            raise CapacityError(
                f"relay row {relay}: commit of {kbps} kbps exceeds uplink "
                f"{uplink_kbps} (in use {in_use})")
        self.in_use_kbps[relay] = in_use + kbps
        self.workload[relay] = self.workload.get(relay, 0) + 1

    def release(self, relay: int, kbps: float) -> None:
        """End a transfer committed at kbps on the relay with that row."""
        remaining = self.in_use_kbps.get(relay, 0.0) - kbps
        if remaining < -1e-6:
            raise CapacityError(f"relay row {relay}: released more than committed")
        if abs(remaining) < RATE_EPS:
            self.in_use_kbps.pop(relay, None)
        else:
            self.in_use_kbps[relay] = remaining
        count = self.workload.get(relay, 0) - 1
        if count > 0:
            self.workload[relay] = count
        else:
            self.workload.pop(relay, None)


TRACE_EMPTY_USER, TRACE_NON_FINITE, TRACE_BACKWARDS = 1, 2, 3
_TRACE_FAULTS = {TRACE_EMPTY_USER: "empty user_id", TRACE_NON_FINITE: "non-finite timestamp",
                 TRACE_BACKWARDS: "leave_ts precedes request_ts"}


def trace_row_faults(user_id: Sequence[str], request_ts: np.ndarray,
                     leave_ts: np.ndarray) -> np.ndarray:
    """Each trace row's first broken rule as an int8 code, 0 for none:
    TRACE_EMPTY_USER (a blank user_id), then TRACE_NON_FINITE (a timestamp
    that is not finite), then TRACE_BACKWARDS (leave_ts before request_ts).
    TraceColumns raises on the first faulty row; io.parse_trace reports and
    skips each."""
    faults = (leave_ts < request_ts).astype(np.int8) * TRACE_BACKWARDS
    faults[~(np.isfinite(request_ts) & np.isfinite(leave_ts))] = TRACE_NON_FINITE
    if not all(map(str.strip, user_id)):
        faults[np.array([not uid.strip() for uid in user_id])] = TRACE_EMPTY_USER
    return faults


@dataclass(eq=False)
class TraceColumns:
    """An access trace as read-only columns, one entry per row in file
    order: user_id (a tuple of str), float64 request_ts and leave_ts in
    seconds, and bool fetch_failure. The table holds its own copy of each
    column, and building one checks every row (a user_id that is not
    blank, finite timestamps, leave_ts >= request_ts), raising ValueError
    naming the first bad row.
    """

    user_id: tuple[str, ...]
    request_ts: np.ndarray
    leave_ts: np.ndarray
    fetch_failure: np.ndarray

    def __post_init__(self):
        self.user_id = tuple(self.user_id)
        n = len(self.user_id)
        for name, dtype in (("request_ts", np.float64), ("leave_ts", np.float64),
                            ("fetch_failure", np.bool_)):
            column = np.array(getattr(self, name), dtype)
            if column.shape != (n,):
                raise ValueError(f"{name} needs one entry per user_id, {n}")
            column.flags.writeable = False
            setattr(self, name, column)
        faults = trace_row_faults(self.user_id, self.request_ts, self.leave_ts)
        if faults.any():
            row = int(faults.nonzero()[0][0])
            raise ValueError(f"trace row {row} (user_id {self.user_id[row]!r}): "
                             f"{_TRACE_FAULTS[faults.item(row)]}, request_ts "
                             f"{self.request_ts.item(row)!r}, leave_ts {self.leave_ts.item(row)!r}")

    def __len__(self) -> int:
        return len(self.user_id)


@dataclass
class SimConfig:
    """Full simulation configuration with reference-scenario defaults.

    Rates are expressed as: arrivals per simulated minute, session Pareto
    parameters in minutes (None means calibrate from the standard session
    quantiles), capacities in kbps, latencies in ms, sizes in KB.
    """

    peer_count: int = 5000
    city_table: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_CITIES))
    isp_count: int = 3
    arrival_rate_lambda: float = DEFAULT_ARRIVALS_PER_MIN
    pareto_shape: float | None = None
    pareto_scale_min: float | None = None
    alpha: float = 0.2                  # careful-fraction of the relay list
    gamma: float = 0.8                  # workload filter threshold
    zeta: int = 10                      # relay list length
    workload_mode: str = "utilization"
    failure_ratio: float = 0.6
    failure_region: str = "Beijing"
    failure_start: float = 0.0
    failure_end: float = math.inf
    content_size_kb: float = 1600.0     # average web page weight
    content_sizes_kb: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0,
                                           8000.0, 16000.0)
    uplink_profile: dict[float, float] = field(
        default_factory=lambda: dict(DEFAULT_UPLINK_PROFILE))
    downlink_factor: float = 4.0
    latency_base_ms: float = 5.0
    latency_per_km_ms: float = 0.02
    tts_coeffs: tuple[float, float, float] = (-0.0076, 0.97, 3.5)
    tts_clamp_min: float = 60.0
    strategy: str = "path-aware"
    rng_seed: int = 42
    sim_duration: float = math.inf


def _is_int(value) -> bool:
    """True for Python and numpy integers; bools are not counts or seeds."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def config_errors(cfg: SimConfig) -> list[str]:
    """Collect every violated constraint; empty list means valid."""
    errs = [f"{name}: must be an integer" for name in ("peer_count", "isp_count", "zeta",
                                                       "rng_seed")
            if not _is_int(getattr(cfg, name))]
    if _is_int(cfg.peer_count) and cfg.peer_count <= 0:
        errs.append("peer_count: must be positive")
    if _is_int(cfg.rng_seed) and cfg.rng_seed < 0:
        errs.append("rng_seed: must be non-negative")
    if not cfg.city_table:
        errs.append("city_table: must contain at least one city")
    for name, coord in cfg.city_table.items():
        if len(coord) != 2:
            errs.append(f"city_table[{name}]: expected (lat, lon)")
            continue
        lat, lon = coord
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            errs.append(f"city_table[{name}]: coordinates out of range")
    if _is_int(cfg.isp_count) and cfg.isp_count < 1:
        errs.append("isp_count: must be at least 1")
    if not 0 < cfg.arrival_rate_lambda < math.inf:
        errs.append("arrival_rate_lambda: must be positive and finite")
    if cfg.pareto_shape is not None and not 0 < cfg.pareto_shape < math.inf:
        errs.append("pareto_shape: must be positive and finite when set")
    if cfg.pareto_scale_min is not None and not 0 < cfg.pareto_scale_min < math.inf:
        errs.append("pareto_scale_min: must be positive and finite when set")
    if not 0.0 <= cfg.alpha <= 1.0:
        errs.append("alpha: must lie in [0, 1]")
    if not 0.0 <= cfg.gamma <= 1.0:
        errs.append("gamma: must lie in [0, 1]")
    if _is_int(cfg.zeta) and cfg.zeta < 1:
        errs.append("zeta: must be at least 1")
    if cfg.workload_mode not in WORKLOAD_MODES:
        errs.append(f"workload_mode: must be one of {WORKLOAD_MODES}")
    if not 0.0 <= cfg.failure_ratio <= 1.0:
        errs.append("failure_ratio: must lie in [0, 1]")
    if cfg.failure_region not in cfg.city_table:
        errs.append(f"failure_region: unknown city {cfg.failure_region!r}")
    if not 0 <= cfg.failure_start < math.inf:
        errs.append("failure_start: must be non-negative and finite")
    if not cfg.failure_start < cfg.failure_end:
        errs.append("failure_start: must precede failure_end")
    if cfg.failure_start > cfg.sim_duration:   # a request issued at the horizon can be cut off
        errs.append("failure_start: must not come after sim_duration")
    if not 0 < cfg.content_size_kb < math.inf:
        errs.append("content_size_kb: must be positive and finite")
    if not cfg.content_sizes_kb or any(not 0 < s < math.inf for s in cfg.content_sizes_kb):
        errs.append("content_sizes_kb: must be a non-empty list of positive finite sizes")
    if not cfg.uplink_profile:
        errs.append("uplink_profile: must not be empty")
    else:
        if any(not (0 < k < math.inf) for k in cfg.uplink_profile):
            errs.append("uplink_profile: capacity buckets must be positive and finite")
        probs = list(cfg.uplink_profile.values())
        if any(not (0 <= p < math.inf) for p in probs):
            errs.append("uplink_profile: probabilities must be finite and non-negative")
        elif abs(sum(probs) - 1.0) > 1e-9:
            errs.append("uplink_profile: probabilities must sum to 1")
    if not 0 < cfg.downlink_factor < math.inf:
        errs.append("downlink_factor: must be positive and finite")
    if not 0 <= cfg.latency_base_ms < math.inf:
        errs.append("latency_base_ms: must be non-negative and finite")
    if not 0 <= cfg.latency_per_km_ms < math.inf:
        errs.append("latency_per_km_ms: must be non-negative and finite")
    if len(cfg.tts_coeffs) != 3:
        errs.append("tts_coeffs: expected exactly three coefficients")
    elif not all(map(math.isfinite, cfg.tts_coeffs)):
        errs.append("tts_coeffs: coefficients must be finite")
    if not 0 < cfg.tts_clamp_min < math.inf:
        errs.append("tts_clamp_min: must be positive and finite")
    if cfg.strategy not in STRATEGIES:
        errs.append(f"strategy: must be one of {STRATEGIES}")
    if not cfg.sim_duration > 0:   # inf is allowed, NaN is not
        errs.append("sim_duration: must be positive")
    return errs


def validate_config(cfg: SimConfig) -> SimConfig:
    """Return cfg unchanged or raise ConfigError listing every violation."""
    errs = config_errors(cfg)
    if errs:
        raise ConfigError(errs)
    return cfg
