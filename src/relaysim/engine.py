"""Discrete-event engine for joint server and relay-peer delivery.

Each peer issues one content request when it arrives. Requests first try
the server; a peer cut off by a regional failure falls back to its relay
candidate list and works through it one attempt at a time. Every attempt,
server fetch or relay transfer, is planned in full when it starts as an
AttemptPlan, and one handler resolves it when its time comes. Relay uplink
capacity is tracked in a per-run ledger: transfer rates are fixed when an
attempt starts and released when it resolves. Event ordering at equal
timestamps is fixed (deliveries, other resolutions, departures, arrivals,
request issues) so runs are bit-reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from relaysim import churn
from relaysim.churn import SessionModel, TimeToStayModel
from relaysim.model import (RATE_EPS, ContentItem, Peer, RelayLedger, SimConfig,
                            validate_config)
from relaysim.netsim import (SERVER, CityTable, FailureScenario, assign_bandwidth,
                             assign_isp, available_throughput, can_connect,
                             inject_failure, latency_ms)
from relaysim.selection import (RelayCandidateList, generate_relay_list,
                                no_relay_list, random_relay_list)

# Heap entries are (time, priority, seq, kind, payload) tuples; the
# priority orders events at equal timestamps and seq keeps insertion order.
# An attempt resolves as "attempt-complete" when its plan delivers and as
# "attempt-abort" otherwise; both go to the same handler.
EVENT_PRIORITY = {
    "attempt-complete": 0,
    "attempt-abort": 1,
    "peer-departure": 2,
    "peer-arrival": 3,
    "request-issue": 4,
}


@dataclass(slots=True)
class RequestOutcome:
    """Terminal record of one request."""

    requester_id: int
    size_kb: float
    start_time: float
    served_by: int | str | None = None   # relay id, SERVER, or None
    attempts: int = 0
    entered_relay_phase: bool = False
    end_time: float | None = None

    @property
    def served(self) -> bool:
        return self.served_by is not None

    @property
    def primary_success(self) -> bool:
        """Served by the first relay tried."""
        return isinstance(self.served_by, int) and self.attempts == 1


@dataclass
class MetricsReport:
    """Aggregated run statistics; ratios are None when undefined."""

    total_requests: int
    served_by_server: int
    served_by_relay: int
    unserved: int
    success_ratio: float | None
    relay_phase_requests: int
    primary_success_ratio: float | None
    avg_repeated_requests: float | None
    affected_requests: int
    affected_success_ratio: float | None
    region_requests: int
    region_success_ratio: float | None

    @property
    def is_empty(self) -> bool:
        return self.total_requests == 0

    def to_dict(self) -> dict:
        return asdict(self)


def collect_metrics(outcomes: list[RequestOutcome],
                    affected_ids: frozenset[int] = frozenset(),
                    region_ids: frozenset[int] = frozenset()) -> MetricsReport:
    """Aggregate outcomes; affected/region slices use the given id sets."""
    total = len(outcomes)
    served_server = sum(1 for o in outcomes if o.served_by == SERVER)
    served_relay = sum(1 for o in outcomes if isinstance(o.served_by, int))
    unserved = total - served_server - served_relay
    relay_phase = [o for o in outcomes if o.entered_relay_phase]
    relay_served = [o for o in outcomes if isinstance(o.served_by, int)]
    primaries = sum(1 for o in relay_phase if o.primary_success)

    def ratio(part, whole):
        return part / whole if whole else None

    affected = [o for o in outcomes if o.requester_id in affected_ids]
    region = [o for o in outcomes if o.requester_id in region_ids]
    return MetricsReport(
        total_requests=total,
        served_by_server=served_server,
        served_by_relay=served_relay,
        unserved=unserved,
        success_ratio=ratio(served_server + served_relay, total),
        relay_phase_requests=len(relay_phase),
        primary_success_ratio=ratio(primaries, len(relay_phase)),
        avg_repeated_requests=(sum(o.attempts for o in relay_served) / len(relay_served)
                               if relay_served else None),
        affected_requests=len(affected),
        affected_success_ratio=ratio(sum(1 for o in affected if o.served), len(affected)),
        region_requests=len(region),
        region_success_ratio=ratio(sum(1 for o in region if o.served), len(region)),
    )


def build_population(cfg: SimConfig, rng: np.random.Generator) -> list[Peer]:
    """Sample the peer population: Poisson arrivals, Pareto sessions,
    uniform city and ISP, bucketed access capacity."""
    model = SessionModel(
        cfg.arrival_rate_lambda,
        cfg.pareto_shape if cfg.pareto_shape is not None else churn.DEFAULT_PARETO_SHAPE,
        cfg.pareto_scale_min if cfg.pareto_scale_min is not None else churn.DEFAULT_PARETO_SCALE_MIN,
    )
    cities = list(cfg.city_table)
    peers = []
    t = 0.0
    for i in range(cfg.peer_count):
        t += float(churn.sample_interarrival(model, rng))
        duration = float(churn.sample_session_duration(model, rng))
        city = cities[int(rng.integers(len(cities)))]
        isp = assign_isp(rng, cfg.isp_count)
        up, down = assign_bandwidth(rng, cfg.uplink_profile, cfg.downlink_factor)
        peers.append(Peer(id=i, city=city, isp=isp, uplink_kbps=up, downlink_kbps=down,
                          join_time=t, session_duration=duration))
    return peers


class AttemptPlan(NamedTuple):
    """Resolution of one attempt, a server fetch or a relay transfer,
    started at a fixed time.

    verdict: 'reject' (preconditions failed; resolve_time is the end of
    the wasted handshake), 'success' (resolve_time is delivery),
    'relay-lost' or 'requester-lost' (resolve_time is the departure that
    kills the transfer). A server fetch only ends in 'success' or
    'requester-lost'. Completion landing exactly on a departure instant
    counts as delivered. rate_kbps is the relay capacity the attempt holds
    until it resolves; 0 when it holds none.
    """

    verdict: str
    resolve_time: float
    rate_kbps: float = 0.0


def _plan_attempt(relay: Peer, requester: Peer, content: ContentItem, t: float,
                  scenario: FailureScenario | None, ledger: RelayLedger,
                  cities: CityTable, base_ms: float, per_km_ms: float) -> AttemptPlan:
    """Decide how a single relay attempt plays out, without side effects.

    The transfer rate is fixed at start: the smaller of the relay's free
    uplink, the requester's downlink, and the relay's fair downlink share
    across its current workload plus this transfer, both read from the
    run's ledger. Every attempt pays a two-way handshake at the
    city-to-city latency.
    """
    dist = cities.distance_km(requester.city, relay.city)
    handshake = 2.0 * latency_ms(dist, base_ms, per_km_ms) / 1000.0
    reachable = (relay.online(t)
                 and can_connect(relay.id, SERVER, t, scenario)
                 and can_connect(relay.id, requester.id, t, scenario))
    if not reachable:
        return AttemptPlan("reject", t + handshake)
    avail = available_throughput(relay, requester, t, scenario, ledger)
    if avail <= RATE_EPS:
        return AttemptPlan("reject", t + handshake)
    share = relay.downlink_kbps / (ledger.workload.get(relay.id, 0) + 1)
    rate = min(avail, share)
    t_end = t + handshake + content.size_kbits / rate
    if t_end <= relay.departure_time and t_end <= requester.departure_time:
        return AttemptPlan("success", t_end, rate)
    if requester.departure_time <= relay.departure_time:
        return AttemptPlan("requester-lost", requester.departure_time, rate)
    return AttemptPlan("relay-lost", relay.departure_time, rate)


@dataclass
class _Request:
    outcome: RequestOutcome
    candidates: RelayCandidateList = no_relay_list()   # immutable, so shared
    next_index: int = 0
    # (plan, relay Peer or None for the server) of the scheduled resolution
    pending: tuple[AttemptPlan, Peer | None] | None = None


# Sub-stream labels under the master seed. Population and failure draws are
# shared by every strategy at a given seed (common random numbers), and each
# request gets its own selection stream keyed by requester id so candidate
# draws stay aligned across strategies too.
_STREAM_POPULATION = 0
_STREAM_FAILURE = 1
_STREAM_SELECT = 2


def _stream(seed: int, label: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, label) + key))


def draw_population(cfg: SimConfig) -> tuple[list[Peer], FailureScenario]:
    """The population and resolved failure scenario a valid cfg describes.

    Only the population and failure fields and rng_seed enter the draw, so
    configs that differ in content size or strategy alone share it.
    """
    peers = build_population(cfg, _stream(cfg.rng_seed, _STREAM_POPULATION))
    scenario = inject_failure(
        FailureScenario(cfg.failure_region, cfg.failure_ratio,
                        cfg.failure_start, cfg.failure_end),
        peers, _stream(cfg.rng_seed, _STREAM_FAILURE))
    return peers, scenario


class Simulation:
    """One seeded simulation run; single-shot.

    All randomness derives from cfg.rng_seed through labeled sub-streams,
    so two runs with the same config are bit-identical and two strategies
    under the same seed see the identical population and failure draw.
    A caller may pass that draw as peers and a resolved scenario, together,
    to run several cells on one population; peers are immutable and the
    run's own state lives in self.ledger.
    """

    def __init__(self, cfg: SimConfig, strategy: str | None = None,
                 peers: list[Peer] | None = None,
                 scenario: FailureScenario | None = None):
        validate_config(cfg)
        self.cfg = cfg
        self.strategy = strategy if strategy is not None else cfg.strategy
        if self.strategy not in ("no-relay", "random", "path-aware"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if (peers is None) != (scenario is None):
            raise ValueError("peers and scenario are supplied together or not at all")
        if peers is None:
            peers, scenario = draw_population(cfg)
        elif not scenario.resolved:
            raise ValueError("externally supplied scenario must be resolved")
        self.peers: dict[int, Peer] = {p.id: p for p in peers}
        if len(self.peers) != len(peers):
            raise ValueError("peer ids must be unique")
        self.city_table = CityTable(cfg.city_table)
        self.scenario = scenario
        self.tts = TimeToStayModel(*cfg.tts_coeffs, cfg.tts_clamp_min)
        self.content = ContentItem(cfg.content_size_kb)
        # The server fetch goes to the in-city edge.
        self._server_handshake = 2.0 * latency_ms(0.0, cfg.latency_base_ms,
                                                  cfg.latency_per_km_ms) / 1000.0
        self.outcomes: list[RequestOutcome] = []
        self.ledger = RelayLedger()
        self._online: dict[int, Peer] = {}
        self._requests: dict[int, _Request] = {}
        self._heap: list = []
        self._seq = 0
        self._now = 0.0
        self._ran = False

    def _schedule(self, time: float, kind: str, payload: int | None = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, EVENT_PRIORITY[kind], self._seq, kind, payload))

    def run(self) -> MetricsReport:
        """Process events until the horizon, then aggregate metrics."""
        if self._ran:
            raise RuntimeError("Simulation.run is single-shot; build a new instance")
        self._ran = True
        for p in self.peers.values():
            self._schedule(p.join_time, "peer-arrival", p.id)
            if math.isfinite(p.departure_time):
                self._schedule(p.departure_time, "peer-departure", p.id)
            self._schedule(p.join_time, "request-issue", p.id)
        handlers = {
            "attempt-complete": self._on_resolve,
            "attempt-abort": self._on_resolve,
            "peer-departure": self._on_departure,
            "peer-arrival": self._on_arrival,
            "request-issue": self._on_request_issue,
        }
        horizon = self.cfg.sim_duration
        while self._heap:
            t, _, _, kind, payload = heapq.heappop(self._heap)
            if t > horizon:
                break
            self._now = t
            handlers[kind](payload)
        for req in self._requests.values():
            if req.outcome.end_time is None:
                req.outcome.end_time = horizon
        if self.scenario.region is not None:
            region_ids = frozenset(p.id for p in self.peers.values()
                                   if p.city == self.scenario.region)
        else:
            region_ids = frozenset()
        return collect_metrics(self.outcomes, self.scenario.affected or frozenset(),
                               region_ids)

    def _on_arrival(self, pid: int) -> None:
        self._online[pid] = self.peers[pid]

    def _on_departure(self, pid: int) -> None:
        self._online.pop(pid, None)

    def _on_request_issue(self, pid: int) -> None:
        peer = self.peers[pid]
        t = self._now
        out = RequestOutcome(peer.id, self.content.size_kb, t)
        req = _Request(out)
        self.outcomes.append(out)
        self._requests[peer.id] = req
        if can_connect(peer.id, SERVER, t, self.scenario):
            t_end = t + self._server_handshake + self.content.size_kbits / peer.downlink_kbps
            if t_end <= peer.departure_time:
                self._pend(req, AttemptPlan("success", t_end))
            else:
                self._pend(req, AttemptPlan("requester-lost", peer.departure_time))
            return
        self.ledger.fetch_failed.add(peer.id)
        out.entered_relay_phase = True
        req.candidates = self._make_candidates(peer, t)
        self._start_next_attempt(req, t)

    def _make_candidates(self, peer: Peer, t: float) -> RelayCandidateList:
        online = sorted(self._online.values(), key=lambda p: p.id)
        rng = _stream(self.cfg.rng_seed, _STREAM_SELECT, peer.id)
        if self.strategy == "no-relay":
            return no_relay_list()
        if self.strategy == "random":
            return random_relay_list(peer, online, self.cfg.zeta, rng)
        return generate_relay_list(
            peer, online, alpha=self.cfg.alpha, gamma=self.cfg.gamma,
            zeta=self.cfg.zeta, rng=rng, t=t, tts=self.tts,
            workload_mode=self.cfg.workload_mode, ledger=self.ledger)

    def _start_next_attempt(self, req: _Request, t: float) -> None:
        requester = self.peers[req.outcome.requester_id]
        if t >= requester.departure_time:
            self._finalize(req, None, requester.departure_time)
            return
        if req.next_index >= len(req.candidates):
            self._finalize(req, None, t)
            return
        relay = self.peers[req.candidates[req.next_index]]
        req.next_index += 1
        req.outcome.attempts += 1
        plan = _plan_attempt(relay, requester, self.content, t, self.scenario,
                             self.ledger, self.city_table, self.cfg.latency_base_ms,
                             self.cfg.latency_per_km_ms)
        if plan.rate_kbps > 0:
            self.ledger.commit(relay, plan.rate_kbps)
        self._pend(req, plan, relay)

    def _pend(self, req: _Request, plan: AttemptPlan, relay: Peer | None = None) -> None:
        req.pending = (plan, relay)
        kind = "attempt-complete" if plan.verdict == "success" else "attempt-abort"
        self._schedule(plan.resolve_time, kind, req.outcome.requester_id)

    def _on_resolve(self, pid: int) -> None:
        req = self._requests[pid]
        plan, relay = req.pending
        if plan.rate_kbps > 0:
            self.ledger.release(relay, plan.rate_kbps)
        if plan.verdict == "success":
            self._finalize(req, SERVER if relay is None else relay.id, self._now)
        elif plan.verdict == "requester-lost":
            self._finalize(req, None, self._now)
        else:
            self._start_next_attempt(req, self._now)

    def _finalize(self, req: _Request, served_by, end_time: float) -> None:
        out = req.outcome
        out.served_by = served_by
        out.end_time = end_time
        del self._requests[out.requester_id]


def run(cfg: SimConfig, strategy: str | None = None) -> MetricsReport:
    """Build a Simulation from cfg and run it to completion."""
    return Simulation(cfg, strategy=strategy).run()
