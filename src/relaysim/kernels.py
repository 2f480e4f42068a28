"""Numeric kernels for the assignment solvers.

`exact_best` finds the optimal complete assignment by depth-first
branch-and-bound; `greedy_assign` makes the one-pass greedy sweep in
descending benefit order, sorting one value band at a time. Both expect
finite, non-negative benefits and capacities (`selection._check_instance`
guarantees them) and break ties deterministically, as documented below.
"""

from __future__ import annotations

import numpy as np

CAP_EPS = 1e-9


def backend() -> str:
    """Name of the kernel implementation, reported in run manifests."""
    return "numpy"


# Assignments are encoded as integers k in [0, m**n): requester q is
# assigned relay (k // m**q) % m. Ties on the objective keep the smallest
# k. The objective and every relay's load are summed in ascending
# requester order, so a result does not depend on the search order.

# Relative widening of the capacity cut, far above the rounding of a sum
# of at most 8 loads; the exact check on the complete assignment decides.
_CUT_SLACK = 1e-12


def exact_best(b: np.ndarray, caps: np.ndarray) -> tuple[int, float]:
    """Best feasible assignment code and objective; code -1 if infeasible.

    Depth-first branch-and-bound: requester n-1 is assigned first and
    relays are tried in ascending order, so codes are visited in
    ascending order and, with strict-improvement updates, the first
    optimum found has the smallest code. A branch is cut when a relay's
    load exceeds its cap, or when its bound, the objective with each
    requester still unassigned at its row maximum, does not beat the best
    found. The bound is summed in the objective's order, so it needs no
    slack for rounding, and a branch that can at most tie is cut too.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    n, m = b.shape
    if n == 0:
        return 0, 0.0
    if m == 0:
        return -1, 0.0
    rows = b.tolist()
    limit = [c + CAP_EPS for c in caps.tolist()]
    cut = [c * (1.0 + _CUT_SLACK) for c in limit]
    # rest[q]: the row maxima of requesters 0..q-1, summed in ascending order
    rest = [0.0] * (n + 1)
    for q in range(n):
        rest[q + 1] = rest[q] + max(rows[q])
    assign = [0] * n
    value = [0.0] * n
    load = [0.0] * m
    best_k, best_obj = -1, 0.0

    def settle() -> None:
        nonlocal best_k, best_obj
        loads = [0.0] * m
        obj = 0.0
        for q in range(n):
            loads[assign[q]] += value[q]
            obj += value[q]
        for r in range(m):
            if loads[r] > limit[r]:
                return
        if best_k < 0 or obj > best_obj:
            best_k = sum(assign[q] * m ** q for q in range(n))
            best_obj = obj

    def visit(q: int) -> None:
        row = rows[q]
        for r in range(m):
            v = row[r]
            held = load[r]
            if held + v > cut[r]:
                continue
            if best_k >= 0:
                # Rounded addition is monotone, so no completion's objective,
                # summed in the same order, can exceed this bound.
                bound = rest[q] + v
                for i in range(q + 1, n):
                    bound += value[i]
                if bound <= best_obj:
                    continue
            assign[q] = r
            value[q] = v
            if q == 0:
                settle()
            else:
                load[r] = held + v
                visit(q - 1)
                load[r] = held

    visit(n - 1)
    return best_k, best_obj


def decode_assignment(k: int, n: int, m: int) -> tuple[int, ...]:
    """Expand an assignment code into per-requester relay indices."""
    out = []
    for _ in range(n):
        out.append(k % m)
        k //= m
    return tuple(out)


# Size of the strided sample the greedy band edges are read from, and the
# most entries a band may hold before ties at its lower edge are split off.
_SAMPLE = 4096
_BAND_MAX = 1 << 17


def greedy_assign(b: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, float]:
    """One-pass greedy: visit benefits in descending order, assign when it fits.

    Ties in benefit are broken by flat index (requester-major). Returns
    (assignment, objective) where unmatched requesters hold -1.

    Entries are visited one value band at a time, with band edges read
    from a strided sample and bands that grow. Before a band is sorted,
    every entry that can no longer be taken is dropped for good: its
    requester is matched, or it exceeds its relay's remaining capacity.
    With non-negative benefits both only become more true as the sweep
    goes on, so the dropped entries are exactly those the full sweep
    would skip. The sweep stops once every requester is matched or no
    band is left.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    n, m = b.shape
    assign = np.full(n, -1, dtype=np.int64)
    if n == 0 or m == 0:
        return assign, 0.0
    flat = b.ravel()
    stride = max(1, flat.size // _SAMPLE)
    sample = np.sort(flat[::stride])
    # bands are counted in sample entries: about one entry per requester
    # first, then doubling up to _BAND_MAX entries
    count_max = max(1, _BAND_MAX // stride)
    count = min(max(1, n // stride), count_max)
    owner = [-1] * n
    remaining = caps.tolist()
    left = n
    band = np.empty(b.shape, dtype=bool)
    keep = np.empty(b.shape, dtype=bool)

    def visit(idx: np.ndarray) -> None:
        nonlocal left
        qs, rs = np.divmod(idx, m)
        for q, r, v in zip(qs.tolist(), rs.tolist(), flat[idx].tolist()):
            if owner[q] < 0 and v <= remaining[r] + CAP_EPS:
                owner[q] = r
                remaining[r] -= v
                left -= 1
                if not left:
                    return

    def visit_sorted(mask: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        visit(idx[np.argsort(-flat[idx], kind="stable")])

    hi = np.inf
    while left:
        fit = np.asarray(remaining) + CAP_EPS
        # The band takes `count` sample entries below `hi` and below the
        # largest remaining capacity; entries above the latter fit nowhere.
        top = int(np.searchsorted(sample, fit.max(), side="right"))
        j = min(top - count, int(np.searchsorted(sample, hi)) - 1)
        lo = float(sample[j]) if j >= 0 else -np.inf
        np.greater_equal(b, lo, out=band)
        np.less(b, hi, out=keep)
        band &= keep
        np.less_equal(b, fit, out=keep)
        band &= keep
        band[np.asarray(owner) >= 0] = False
        if j >= 0 and np.count_nonzero(band) > _BAND_MAX:
            # a heavy tie at lo: entries above it first, then the tie in
            # flat order, one block of requesters at a time
            np.not_equal(b, lo, out=keep)
            keep &= band
            visit_sorted(keep)
            band ^= keep
            block = max(1, _BAND_MAX // m)
            for start in range(0, n, block):
                if not left:
                    break
                visit(np.flatnonzero(band[start:start + block]) + start * m)
        else:
            visit_sorted(band)
        if j < 0:
            break
        hi = lo
        count = min(2 * count, count_max)
    assign[:] = owner
    matched = np.flatnonzero(assign >= 0)
    obj = 0.0
    for v in b[matched, assign[matched]].tolist():   # ascending requester order
        obj += v
    return assign, obj
