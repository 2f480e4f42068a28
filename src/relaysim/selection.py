"""Relay candidate selection and the global assignment solvers.

A relay candidate list is a tuple of relay ids in try order; entry 0,
when present, is the primary relay. The draw and the rank depend only on
the population, so the engine makes both in one pass before the event
loop (engine.draw_candidates): random_relay_list draws the random
baseline's list; draw_path_aware draws a careful partition from the
online peers of the requester's city and ISP and a random partition from
everyone else online; rank_path_aware sorts each partition by estimated
time-to-stay, for a block of draws at once, and puts the careful one
first. At request time generate_relay_list drops the peers with too much
relay workload. Peers enter as ids, bucket codes and population rows.
The draws read an OnlineSet of ascending ids, bucketed by code, and pick
pool indices without building the pools, so the work per list grows with
zeta, not with the peers online. Each draw reads a row u of uniform floats
in [0, 1), one per pick, and samples without replacement (_draw).

The solvers tackle the batch variant: pick one relay per requester to
maximize total delivered benefit under per-relay uplink caps.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, insort
from collections.abc import Container, Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import TYPE_CHECKING

import numpy as np

from relaysim import kernels
from relaysim.churn import TimeToStayModel, estimate_time_to_stay
from relaysim.model import RelayLedger

if TYPE_CHECKING:
    from relaysim.engine import Population

MAX_EXACT_DIM = 8


class Infeasible(Exception):
    """No assignment satisfies the capacity constraints."""


class OnlineSet:
    """The ids of the online peers in ascending order, plus one id-ordered
    bucket per bucket code, kept with bisect: the draws never sort or scan."""

    def __init__(self):
        self.ids: list[int] = []
        self._buckets: dict[Hashable, list[int]] = {}

    def update(self, leaving: Iterable[tuple[int, Hashable]],
               arriving: Iterable[tuple[int, Hashable]]) -> None:
        """Remove the leaving (id, bucket code) peers, which must be
        online, then add the arriving ones, which must not be."""
        ids, buckets = self.ids, self._buckets
        for pid, code in leaving:
            del ids[bisect_left(ids, pid)]
            bucket = buckets[code]
            del bucket[bisect_left(bucket, pid)]
        for pid, code in arriving:
            insort(ids, pid)
            insort(buckets.setdefault(code, []), pid)

    def bucket(self, code: Hashable) -> list[int]:
        """Ids of the online peers with that bucket code, ascending."""
        return self._buckets.get(code, [])


def _draw(u: Sequence[float], ids: list[int], skip: list[int], k: int) -> list[int]:
    """Up to k ids drawn without replacement, in sequence, from ids minus
    the ascending positions in skip, reading one float of u per pick.

    Of the m ids in the pool, pick j takes position floor(u[j] * (m - j))
    among the positions still untaken, mapped past the skipped and taken
    ones: pool.pop(int(u[j] * len(pool))) on the pool built as a list, whose
    ordered pick sequences are equally likely for uniform u. k <= 0, or an
    empty pool, reads nothing of u.
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
    found = ((bisect_left(ids, pid), pid) for pid in pids)
    return sorted(i for i, pid in found if i < len(ids) and ids[i] == pid)


def random_relay_list(requester: int, online: OnlineSet, zeta: int,
                      u: Sequence[float]) -> tuple[int, ...]:
    """Baseline: the ids of up to zeta online peers other than the
    requester (an id), drawn uniformly from the row u, in draw order. Pool
    index i is the i-th lowest online id other than the requester's, so the
    draw does not depend on the order peers came online in.
    """
    ids = online.ids
    return tuple(_draw(u, ids, _positions(ids, (requester,)), zeta))


def _workload_ok(pid: int, uplink_kbps: float, ledger: RelayLedger, gamma: float,
                 mode: str) -> bool:
    if mode == "count":
        return ledger.workload.get(pid, 0) <= gamma
    return ledger.uplink_utilization(pid, uplink_kbps) <= gamma


def draw_path_aware(requester: int, bucket: Hashable, online: OnlineSet, *, alpha: float,
                    zeta: int, u: Sequence[float],
                    failed: Container[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The draw half of a path-aware list: (careful ids, random ids), for
    the requester with that id and bucket code.

    ceil(zeta * alpha) careful slots are drawn from the online peers of
    the requester's bucket, the rest from all other online peers, both
    pools without the requester and in ascending id order. The careful draw
    reads u first, the random draw u[careful_slots:], so with alpha 0 and
    failed empty the random part is random_relay_list's draw. A careful
    shortfall is not backfilled. The ids in failed (the fetch-failure
    history) take their picks, then leave both parts, kept in draw order.
    """
    careful_slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
    same = online.bucket(bucket)
    careful = _draw(u, same, _positions(same, (requester,)), careful_slots)
    randoms = _draw(u[careful_slots:], online.ids,
                    _positions(online.ids, (requester, *careful)), zeta - careful_slots)
    drop = failed.__contains__
    return tuple(filterfalse(drop, careful)), tuple(filterfalse(drop, randoms))


def rank_path_aware(drawn: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], times,
                    population: Population, tts: TimeToStayModel) -> np.ndarray:
    """The int64 ids of path-aware draws (draw_path_aware's pairs), draw i
    made at times[i], ranked and concatenated: careful partition first, so
    its most durable member is the primary relay, each partition by
    descending estimated time-to-stay at its time (join times from the
    population's columns), ties on ascending id."""
    sizes = np.array([(len(careful), len(randoms)) for careful, randoms in drawn], np.int64)
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(drawn)), np.int64)
    part = np.repeat(np.arange(sizes.size), sizes.ravel())   # draw i: parts 2i, 2i + 1
    elapse = (np.asarray(times)[part // 2] - population.join[population.row_of[ids]]) / 60.0
    return ids[np.lexsort((ids, -estimate_time_to_stay(tts, elapse), part))]


def generate_relay_list(ranked: tuple[int, ...], population: Population, *, gamma: float,
                        workload_mode: str, ledger: RelayLedger) -> tuple[int, ...]:
    """A ranked path-aware list of ids at request time: ranked less the
    peers whose workload in the run's ledger is above gamma, in ranked
    order. A peer absent from the ledger dict workload_mode reads carries
    none, and gamma >= 0 keeps it, so a list that dict misses comes back as
    it is."""
    busy = ledger.workload if workload_mode == "count" else ledger.in_use_kbps
    if busy.keys().isdisjoint(ranked):
        return ranked
    row_of, uplink = population.row_of, population.uplink
    return tuple(pid for pid in ranked
                 if _workload_ok(pid, uplink.item(row_of.item(pid)), ledger, gamma,
                                 workload_mode))


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
