"""Relay candidate selection and the global assignment solvers.

Candidate generation is split in two. The draw depends only on who is
online when a request is issued and who failed a fetch before it, so the
engine makes it in one pass over the population in issue order before the
event loop (engine.draw_candidates): the random baseline draws its final
list with random_relay_list, and the path-aware strategy draws a careful
partition from peers sharing the requester's city and ISP and a random
partition from everyone else online, less the requesters the pass walked
before (draw_path_aware). The rank, generate_relay_list, runs at request
time: it drops drawn peers with too much relay workload, then sorts each
partition by estimated time-to-stay so the most durable candidates are
tried first. The draws read an OnlineSet, which holds only the online ids,
in ascending order and bucketed by (city, ISP), and draw pool indices
without building the pools, so the work per list grows with zeta, not
with the number of peers online. Each draw reads a row u of uniform floats
in [0, 1), one float per pick (engine.draw_candidates hands every
requester its row of one block), and samples without replacement in
sequence (_draw). No draw repeats an id (the random partition skips the
careful picks), so a RelayCandidateList is a plain id tuple whose first
careful_count ids form the careful partition.

The solvers tackle the batch variant: pick one relay per requester to
maximize total delivered benefit under per-relay uplink caps.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, insort
from collections.abc import Container, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import filterfalse

import numpy as np

from relaysim import kernels
from relaysim.churn import TimeToStayModel, estimate_time_to_stay
from relaysim.model import Peer, RelayLedger

MAX_EXACT_DIM = 8


class Infeasible(Exception):
    """No assignment satisfies the capacity constraints."""


@dataclass(frozen=True)
class RelayCandidateList:
    """Ordered relay candidates; the first careful_count ids form the
    careful partition, the rest the random partition. Entry 0, when
    present, is the primary relay."""

    peer_ids: tuple[int, ...]
    careful_count: int = 0

    def __post_init__(self):
        if not 0 <= self.careful_count <= len(self.peer_ids):
            raise ValueError("careful_count out of range")

    def __len__(self):
        return len(self.peer_ids)

    def __getitem__(self, i):
        return self.peer_ids[i]


def no_relay_list() -> RelayCandidateList:
    """The degenerate strategy: never try a relay."""
    return RelayCandidateList((), 0)


class OnlineSet:
    """The ids of the online peers, kept in ascending order, plus one
    id-ordered bucket per (city, ISP).

    Only ids are stored. update() keeps both orders with bisect, so the
    candidate draws below never sort or scan the set.
    """

    def __init__(self):
        self.ids: list[int] = []
        self._buckets: dict[tuple[str, int], list[int]] = {}

    def update(self, leaving: Iterable[Peer], arriving: Iterable[Peer]) -> None:
        """Remove the leaving peers, which must be online, then add the
        arriving ones, which must not be."""
        ids, buckets = self.ids, self._buckets
        for p in leaving:
            pid = p.id
            del ids[bisect_left(ids, pid)]
            bucket = buckets[p.city, p.isp]
            del bucket[bisect_left(bucket, pid)]
        for p in arriving:
            pid = p.id
            insort(ids, pid)
            insort(buckets.setdefault((p.city, p.isp), []), pid)

    def bucket(self, city: str, isp: int) -> list[int]:
        """Ids of the online peers in that city and ISP, ascending."""
        return self._buckets.get((city, isp), [])


def _find(ids: list[int], pid: int) -> int:
    """Position of pid in the ascending ids, or -1."""
    i = bisect_left(ids, pid)
    return i if i < len(ids) and ids[i] == pid else -1


def _draw(u: Sequence[float], ids: list[int], skip: list[int], k: int) -> list[int]:
    """Up to k ids drawn without replacement, in sequence, from ids minus
    the ascending positions in skip, reading one float of u per pick.

    Of the m ids in the pool, pick j takes position floor(u[j] * (m - j))
    among the positions still untaken: as pool.pop(int(u[j] * len(pool)))
    on the pool built as a list, whose every ordered pick sequence is
    equally likely for uniform u. The position is mapped past the skipped
    and already-taken positions instead. k <= 0, or an empty pool, reads
    nothing of u.
    """
    m = len(ids) - len(skip)
    taken = list(skip)
    picked = []
    for j in range(min(k, m)):
        i = int(u[j] * (m - j))
        for s in taken:
            if s > i:
                break
            i += 1
        insort(taken, i)
        picked.append(ids[i])
    return picked


def _positions(ids: list[int], pids) -> list[int]:
    """Ascending positions in ids of those pids that ids holds."""
    found = (_find(ids, pid) for pid in pids)
    return sorted(i for i in found if i >= 0)


def random_relay_list(requester: Peer, online: OnlineSet, zeta: int,
                      u: Sequence[float]) -> RelayCandidateList:
    """Baseline: up to zeta online peers other than the requester, drawn
    uniformly from the row u, in draw order.

    No filtering and no sorting. Pool index i is the i-th lowest online id
    other than the requester's, so the draw is reproducible whatever order
    peers came online in.
    """
    ids = online.ids
    picked = _draw(u, ids, _positions(ids, (requester.id,)), zeta)
    return RelayCandidateList(tuple(picked), 0)


def _workload_ok(peer: Peer, ledger: RelayLedger, gamma: float, mode: str) -> bool:
    if mode == "count":
        return ledger.workload.get(peer.id, 0) <= gamma
    return ledger.uplink_utilization(peer) <= gamma


def draw_path_aware(requester: Peer, online: OnlineSet, *, alpha: float, zeta: int,
                    u: Sequence[float],
                    failed: Container[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The draw half of a path-aware list: (careful ids, random ids).

    ceil(zeta * alpha) slots go to the careful partition, drawn from the
    online peers of the requester's city and ISP; the remaining slots are
    drawn from all other online peers. Both pools exclude the requester
    and are indexed in ascending id order. The careful draw reads the row
    u first and the random draw reads u[careful_slots:], so with alpha 0
    and failed empty the random part is random_relay_list's draw from u. A
    shortfall in the careful partition is not backfilled. The ids in failed
    (the fetch-failure history) take their picks, then leave both parts,
    which stay in draw order; generate_relay_list ranks them.
    """
    careful_slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
    same = online.bucket(requester.city, requester.isp)
    careful = _draw(u, same, _positions(same, (requester.id,)), careful_slots)
    randoms = _draw(u[careful_slots:], online.ids,
                    _positions(online.ids, (requester.id, *careful)), zeta - careful_slots)
    drop = failed.__contains__
    return tuple(filterfalse(drop, careful)), tuple(filterfalse(drop, randoms))


def generate_relay_list(drawn: tuple[tuple[int, ...], tuple[int, ...]],
                        peers: Mapping[int, Peer], *, gamma: float, t: float,
                        tts: TimeToStayModel, workload_mode: str,
                        ledger: RelayLedger) -> RelayCandidateList:
    """Rank a path-aware draw (see draw_path_aware) at request time t.

    Both partitions drop peers with workload above gamma in the run's
    ledger, then sort by descending estimated time-to-stay (ties on
    ascending id). The careful partition comes first, so its most durable
    member is the primary relay. peers maps every drawn id to its Peer.
    """
    def keep(p: Peer) -> bool:
        return _workload_ok(p, ledger, gamma, workload_mode)

    def durability(p: Peer):
        remain = estimate_time_to_stay(tts, p.elapse(t) / 60.0)
        return (-remain, p.id)

    careful, randoms = (sorted(filter(keep, map(peers.__getitem__, part)), key=durability)
                        for part in drawn)
    return RelayCandidateList(tuple(p.id for p in careful + randoms), len(careful))


@dataclass(frozen=True)
class SelectionMatrix:
    """Result of a batch assignment: requester q gets relay assignment[q],
    or -1 when unmatched."""

    assignment: tuple[int, ...]
    relay_caps: tuple[float, ...]

    @property
    def unmatched(self) -> tuple[int, ...]:
        return tuple(q for q, r in enumerate(self.assignment) if r < 0)

    def loads(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.relay_caps), dtype=float)
        for q, r in enumerate(self.assignment):
            if r >= 0:
                out[r] += b[q, r]
        return out

    def objective(self, b: np.ndarray) -> float:
        total = 0.0
        for q, r in enumerate(self.assignment):
            if r >= 0:
                total += b[q, r]
        return float(total)

    def is_feasible(self, b: np.ndarray) -> bool:
        caps = np.asarray(self.relay_caps, dtype=float)
        return bool((self.loads(b) <= caps + kernels.CAP_EPS).all())


def _check_instance(b, caps) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(b, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if b.ndim != 2:
        raise ValueError("benefit matrix must be 2-dimensional")
    if caps.ndim != 1 or len(caps) != b.shape[1]:
        raise ValueError("need one capacity per relay column")
    if b.size and (not np.isfinite(b).all() or (b < 0).any()):
        raise ValueError("benefits must be finite and non-negative")
    if len(caps) and (not np.isfinite(caps).all() or (caps < 0).any()):
        raise ValueError("capacities must be finite and non-negative")
    return b, caps


def solve_exact(b, caps) -> tuple[SelectionMatrix, float]:
    """Optimal one-relay-per-requester assignment by branch-and-bound.

    Every requester must be matched; raises Infeasible when no complete
    assignment fits the caps. Among equal optima the smallest assignment
    code wins (see `kernels`). Instance sides are limited to MAX_EXACT_DIM.
    """
    b, caps = _check_instance(b, caps)
    n, m = b.shape
    if n > MAX_EXACT_DIM or m > MAX_EXACT_DIM:
        raise ValueError(f"exact solver limited to {MAX_EXACT_DIM}x{MAX_EXACT_DIM}, got {n}x{m}")
    if n == 0:
        return SelectionMatrix((), tuple(caps)), 0.0
    if m == 0:
        raise Infeasible("no relays available")
    k, obj = kernels.exact_best(b, caps)
    if k < 0:
        raise Infeasible("capacity constraints exclude every complete assignment")
    assignment = kernels.decode_assignment(k, n, m)
    return SelectionMatrix(assignment, tuple(caps)), obj


def solve_greedy(b, caps) -> tuple[SelectionMatrix, float]:
    """Greedy assignment: scan benefits in descending order, take what fits.

    Requesters that fit nowhere stay unmatched rather than making the
    instance infeasible. Equal benefits are taken in requester-major order.
    The sweep sorts one value band at a time and stops once every
    requester is matched, so it handles sizes far beyond the exact
    solver's limit.
    """
    b, caps = _check_instance(b, caps)
    assign, obj = kernels.greedy_assign(b, caps)
    return SelectionMatrix(tuple(int(r) for r in assign), tuple(caps)), obj


def load_instance(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an instance CSV, first row caps, then one row per requester;
    returns (b, caps)."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and "".join(row).strip()]
    if not rows:
        raise ValueError(f"instance file {path} is empty")
    caps = np.array([float(v) for v in rows[0]], dtype=float)
    body = [[float(v) for v in row] for row in rows[1:]]
    b = np.array(body, dtype=float) if body else np.zeros((0, len(caps)))
    if body and b.shape[1] != len(caps):
        raise ValueError("benefit rows must match the capacity row length")
    return b, caps
