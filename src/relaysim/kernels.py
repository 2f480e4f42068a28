"""Numeric kernels for the assignment solvers.

`exact_best` finds the optimal complete assignment by depth-first
branch-and-bound; `greedy_assign` makes the one-pass greedy sweep in
descending benefit order, one value band at a time, and reads in each band
only the unmatched requesters' rows and the relay columns that can still
take one of its entries, a chunk of rows at a time, so no mask the size
of the benefit matrix is built. Both expect finite, non-negative benefits
and capacities (`selection._check_instance` guarantees them) and break
ties deterministically, as documented below.
"""

from __future__ import annotations

from collections.abc import Iterator

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
# most entries a chunk of a band's scan holds and a band collects before
# the tie at its lower edge is split off.
_SAMPLE = 4096
_BAND_MAX = 1 << 17


def greedy_assign(b: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, float]:
    """One-pass greedy: visit benefits in descending order, assign when it fits.

    Ties in benefit are broken by flat index (requester-major). Returns
    (assignment, objective) where unmatched requesters hold -1.

    Entries are visited one value band [lo, hi) at a time, with band edges
    read from a strided sample and bands that grow. A band reads only the
    submatrix that can still matter: the rows of the unmatched requesters
    and the columns of the live relays. Relay r's upper edge is min(hi,
    the next float above remaining[r] + CAP_EPS): an entry is below it
    exactly when it is below hi and fits r, and r is live when the edge is
    above lo. The entries left out are those whose requester is matched or
    that exceed their relay's remaining capacity; with non-negative
    benefits both only become more true as the sweep goes on, so the full
    sweep would skip them too. When half the relays or more are live, whole
    rows are read instead of gathering columns; a dead relay's edge, at or
    below lo, keeps its entries out all the same.

    The submatrix is scanned in row chunks of at most _BAND_MAX entries,
    two comparisons per entry (>= lo and < upper edge), and its entries
    come out in ascending flat order, so the stable sort by value keeps
    ties in flat order. No n x m mask is built: not the band, below-hi,
    fits-its-relay and not-equal-to-lo masks, nor the pass that cleared
    matched rows. Once a band has collected more than _BAND_MAX entries,
    it keeps only those above lo, and the tie at lo, which sorts last, is
    visited afterwards in flat order, a chunk at a time, with the rows and
    relays re-read before each chunk. The sweep stops once every requester
    is matched or no band is left.
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

    def visit(qs: np.ndarray, rs: np.ndarray, vals: np.ndarray) -> None:
        nonlocal left
        for q, r, v in zip(qs.tolist(), rs.tolist(), vals.tolist()):
            if owner[q] < 0 and v <= remaining[r] + CAP_EPS:
                owner[q] = r
                remaining[r] -= v
                left -= 1
                if not left:
                    return

    def chunks(lo: float, hi: float) -> Iterator[tuple[np.ndarray, ...]]:
        """The band's live submatrix, at most _BAND_MAX entries at a time:
        (unmatched rows, live relay columns, their upper edges, the
        submatrix), with the rows and relays re-read before each chunk."""
        rows = np.flatnonzero(np.asarray(owner) < 0)
        pos = 0
        while pos < rows.size:
            upper = np.minimum(hi, np.nextafter(np.asarray(remaining) + CAP_EPS, np.inf))
            cols = np.flatnonzero(upper > lo)
            if not cols.size:
                return
            if 2 * cols.size >= m:
                # read whole rows: a gather costs several streamed reads per
                # entry, and a dead relay's edge keeps its entries out
                cols = np.arange(m)
            block = rows[pos:pos + max(1, _BAND_MAX // cols.size)]
            pos += block.size
            block = block[[owner[q] < 0 for q in block.tolist()]]
            if not block.size:
                continue
            if cols.size < m:
                sub = b[np.ix_(block, cols)]
            elif block[-1] - block[0] < block.size:   # consecutive rows: a view
                sub = b[block[0]:block[-1] + 1]
            else:
                sub = b[block]
            yield block, cols, upper[cols], sub

    def pick(block: np.ndarray, cols: np.ndarray, sub: np.ndarray,
             mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the masked entries, in ascending flat order."""
        at = np.flatnonzero(mask)
        q, c = np.divmod(at, cols.size)
        return block[q], cols[c], sub.ravel()[at]

    hi = np.inf
    while left:
        fit = np.asarray(remaining) + CAP_EPS
        # The band takes `count` sample entries below `hi` and below the
        # largest remaining capacity; entries above the latter fit nowhere.
        top = int(np.searchsorted(sample, fit.max(), side="right"))
        j = min(top - count, int(np.searchsorted(sample, hi)) - 1)
        lo = float(sample[j]) if j >= 0 else -np.inf
        kept, size, floor = [], 0, lo
        for block, cols, upper, sub in chunks(lo, hi):
            mask = sub >= floor
            mask &= sub < upper
            size += np.count_nonzero(mask)
            if j >= 0 and floor == lo and size > _BAND_MAX:
                # a heavy tie at lo: from here on only entries above it are
                # kept; the tie waits for its own scan
                floor = np.nextafter(lo, np.inf)
                mask &= sub >= floor
                kept = [tuple(c[v >= floor] for c in (q, r, v)) for q, r, v in kept]
            kept.append(pick(block, cols, sub, mask))
        if kept:
            band = [np.concatenate(c) for c in zip(*kept)]
            del kept
            order = np.argsort(-band[2], kind="stable")
            visit(*(c[order] for c in band))
            del band, order
        if floor > lo:
            for block, cols, upper, sub in chunks(lo, floor):
                mask = sub >= lo
                mask &= sub < upper
                visit(*pick(block, cols, sub, mask))
                if not left:
                    break
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
