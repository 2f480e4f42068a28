"""Relay candidate selection and the global assignment solvers.

A relay candidate list is a tuple of relays in try order; entry 0, when
present, is the primary relay. The draw and the rank depend only on the
population, so the engine makes both in one pass before the event loop
(engine.draw_candidates). A path-aware list draws ceil(zeta * alpha)
careful slots from the online peers of the requester's city and ISP and
the rest from everyone else online; the random baseline's list is the
alpha-0 draw. Each draw reads a row u of uniform floats in [0, 1), one per
pick, and samples without replacement. Where a pick lands in its pool
depends only on the pool's size and u, so pool_positions computes the
positions of a whole block of draws as arrays; the engine's sweep then
maps them to peers past the slots each pool skips, so the work per list
grows with zeta, not with the peers online. random_relay_list makes one
requester's random draw by list pops; no run calls it. From there a
relay is its population row: rank_path_aware sorts each partition of a
block of draws, given as flat rows, by estimated time-to-stay and puts
the careful one first. At request time generate_relay_list drops the
rows whose committed share of their uplink is above gamma.

The solvers tackle the batch variant: pick one relay per requester to
maximize total delivered benefit under per-relay uplink caps. They import
`kernels` when called, so a run that solves nothing does not load it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from relaysim.churn import estimate_time_to_stay
from relaysim.model import SimConfig

if TYPE_CHECKING:
    from relaysim.engine import Population

MAX_EXACT_DIM = 8


class Infeasible(Exception):
    """No assignment satisfies the capacity constraints."""


def pool_positions(u: np.ndarray, m) -> list[list[int]]:
    """Row i's picks from a pool of m[i] positions, drawn without
    replacement in sequence, as a list of up to k positions per row (u is
    n x k, one float per pick).

    Pick j takes index x_j = floor(u[i, j] * (m[i] - j)) among the
    positions still untaken: pool.pop(int(u[j] * len(pool))) on the pool
    built as a list, whose ordered pick sequences are equally likely for
    uniform u; the float64 product truncated to int64 is the Python int()
    of it. An index in what is left after pick l is an index before it
    moved past x_l, so pick j's position is x_j moved back through the
    earlier picks, last first: x becomes x + (x >= x_l). Picks past the
    pool read nothing.
    """
    u, m = np.asarray(u, np.float64), np.asarray(m, np.int64)
    k = u.shape[1]
    index = (u * (m[:, None] - np.arange(k))).astype(np.int64)
    out = index.copy()
    for l in range(k - 2, -1, -1):
        out[:, l + 1:] += out[:, l + 1:] >= index[:, l:l + 1]
    rows = out.tolist()
    for i in np.flatnonzero(m < k).tolist():
        rows[i] = rows[i][:max(m.item(i), 0)]
    return rows


def careful_slots(zeta: int, alpha: float) -> int:
    """The careful slots of a path-aware list: ceil(zeta * alpha), at most zeta."""
    return min(zeta, math.ceil(zeta * alpha - 1e-12))


def random_relay_list(requester: int, online: Iterable[int], zeta: int,
                      u: Sequence[float]) -> tuple[int, ...]:
    """Baseline: the ids of up to zeta online peers other than the
    requester (an id), drawn uniformly from the row u, in draw order: the
    list pops of pool_positions on the ascending online ids less the
    requester's, so the draw does not depend on the order peers came
    online in. It is the random draw engine.draw_candidates makes, one
    requester at a time; no run calls it."""
    pool = sorted(pid for pid in online if pid != requester)
    return tuple(pool.pop(int(x * len(pool))) for x in u[:min(zeta, len(pool))])


def rank_path_aware(rows: np.ndarray, sizes: np.ndarray, times, population: Population,
                    cfg: SimConfig) -> np.ndarray:
    """The int64 population rows of a block of path-aware draws, draw i
    made at times[i], ranked: rows holds each draw's careful part, then its
    random part, and sizes (n x 2) their lengths. Each part is sorted by
    descending estimated time-to-stay under cfg at its time (join times
    from the population's columns), ties on ascending id, so the careful
    part's most durable member is the primary relay."""
    part = np.repeat(np.arange(sizes.size), np.ravel(sizes))   # draw i: parts 2i, 2i + 1
    elapse = (np.asarray(times)[part // 2] - population.join[rows]) / 60.0
    return rows[np.lexsort((population.ids[rows], -estimate_time_to_stay(cfg, elapse), part))]


def generate_relay_list(ranked: tuple[int, ...], population: Population, *, gamma: float,
                        in_use_kbps: dict[int, float]) -> tuple[int, ...]:
    """A ranked path-aware list of population rows at request time: ranked
    less the relays whose workload, the uplink they have committed in the
    run's row-keyed in_use_kbps over their uplink capacity, is above
    gamma, in ranked order. A relay absent from in_use_kbps carries none,
    and gamma >= 0 keeps it without reading its uplink, which may be zero,
    so a list the dict misses comes back as it is."""
    if in_use_kbps.keys().isdisjoint(ranked):
        return ranked
    uplink = memoryview(population.uplink)
    return tuple([row for row in ranked
                  if row not in in_use_kbps or in_use_kbps[row] / uplink[row] <= gamma])


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
        from relaysim import kernels
        caps = np.asarray(self.relay_caps, dtype=float)
        return bool((self.loads(b) <= caps + kernels.CAP_EPS).all())


def _check_instance(b, caps) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(b, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if b.ndim != 2:
        raise ValueError("benefit matrix must be 2-dimensional")
    if caps.ndim != 1 or len(caps) != b.shape[1]:
        raise ValueError("need one capacity per relay column")
    if b.size and not _finite_non_negative(b):
        raise ValueError("benefits must be finite and non-negative")
    if len(caps) and not _finite_non_negative(caps):
        raise ValueError("capacities must be finite and non-negative")
    return b, caps


def _finite_non_negative(a: np.ndarray) -> bool:
    """Whether every entry is finite and >= 0 (-0.0 is), read from two
    reductions without an array of a's size: NaN makes both fail."""
    return bool(a.min() >= 0.0 and a.max() < np.inf)


def solve_exact(b, caps) -> tuple[SelectionMatrix, float]:
    """Optimal one-relay-per-requester assignment by branch-and-bound.

    Every requester must be matched; raises Infeasible when no complete
    assignment fits the caps. Among equal optima the smallest assignment
    code wins (see `kernels`). Instance sides are limited to MAX_EXACT_DIM.
    """
    from relaysim import kernels
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
    The sweep sorts one value band at a time, reads in each band only the
    unmatched requesters and the relays that can still take one of its
    entries, drops in numpy the entries that can no longer be taken before
    its sequential visit, visits a heavy tie a row at a time, and stops
    once every requester is matched, so it handles sizes far beyond the
    exact solver's limit. Neither the instance check nor the sweep builds a
    mask the size of b (see `kernels.greedy_assign`).
    """
    from relaysim import kernels
    b, caps = _check_instance(b, caps)
    assign, obj = kernels.greedy_assign(b, caps)
    return SelectionMatrix(tuple(assign.tolist()), tuple(caps)), obj


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
