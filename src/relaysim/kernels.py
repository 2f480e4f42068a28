"""Numeric kernels for the assignment solvers.

`exact_best` finds the optimal complete assignment by depth-first
branch-and-bound; `greedy_assign` makes the one-pass greedy sweep in
descending benefit order, one value band at a time, and reads in each band
only the unmatched requesters' rows and the relay columns that can still
take one of its entries, a chunk of rows at a time, so no mask the size
of the benefit matrix is built. Before its sequential visit it drops, in
numpy, the entries that can no longer be taken, and it visits a heavy tie
a row at a time, since a row takes at most one entry. Both expect finite,
non-negative benefits and capacities (`selection._check_instance`
guarantees them) and break ties deterministically, as documented below.
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


# Size of the strided sample the greedy band edges are read from, the
# most entries a chunk of a band's scan holds and a band collects before
# the tie at its lower edge is split off, and the length of the slices a
# sorted band is visited in.
_SAMPLE = 4096
_BAND_MAX = 1 << 17
_SLICE = 512


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
    sweep would skip them too.

    The submatrix is scanned in row chunks of at most _BAND_MAX entries,
    with one comparison per entry against the upper edge and one against
    lo (none in the last band, where lo = -inf); no n x m mask is built.
    When half the relays or more are live, whole rows are read: a dead
    relay's edge, at or below lo, keeps its entries out all the same. When
    half the rows of a chunk's row range or more are unmatched, the range
    is read in place (a view of whole rows, or a take of the live columns)
    and its matched rows are masked out; otherwise the unmatched rows are
    gathered. Entries come out in ascending flat order, and a band is
    sorted by value, stably when it holds equal values, so ties keep flat
    order.

    The sorted band is visited _SLICE entries at a time: each slice first
    drops, in numpy, the entries that the same rule leaves out at its
    start, so only the survivors reach the sequential loop, which checks
    them again because an earlier survivor can rule a later one out.

    A heavy tie at lo is split off: when the sample holds more than
    _BAND_MAX entries' worth of lo, or once the band has collected more
    than _BAND_MAX entries, the band keeps only the entries above lo, and
    the tie, which sorts last, is visited afterwards in flat order, a chunk
    at a time, with the rows and relays re-read before each chunk. The
    flat order visits a row's tied entries together and a row takes at
    most one, so the tie is visited a row at a time: each row takes its
    first relay that still fits and skips the rest. The sweep stops once
    every requester is matched or no band is left.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    n, m = b.shape
    owner = np.full(n, -1, dtype=np.int64)
    if n == 0 or m == 0:
        return owner, 0.0
    flat = b.ravel()
    stride = max(1, flat.size // _SAMPLE)
    sample = np.sort(flat[::stride])
    # bands are counted in sample entries: about one entry per requester
    # first, then doubling up to _BAND_MAX entries
    count_max = max(1, _BAND_MAX // stride)
    count = min(max(1, n // stride), count_max)
    # The sweep state, as arrays for the numpy scans and mirrored in lists
    # for the sequential loops, which read single entries.
    remaining = caps.copy()
    own, rem = owner.tolist(), caps.tolist()
    left = n

    def take(q: int, r: int, v: float) -> None:
        nonlocal left
        owner[q] = own[q] = r
        rem[r] -= v
        remaining[r] = rem[r]
        left -= 1

    def visit(qs: np.ndarray, rs: np.ndarray, vals: np.ndarray) -> None:
        for pos in range(0, qs.size, _SLICE):
            q_s, r_s, v_s = qs[pos:pos + _SLICE], rs[pos:pos + _SLICE], vals[pos:pos + _SLICE]
            keep = owner[q_s] < 0
            keep &= v_s <= remaining[r_s] + CAP_EPS
            for q, r, v in zip(q_s[keep].tolist(), r_s[keep].tolist(), v_s[keep].tolist()):
                if own[q] < 0 and v <= rem[r] + CAP_EPS:
                    take(q, r, v)
                    if not left:
                        return

    def visit_tie(qs: np.ndarray, rs: np.ndarray, v: float) -> None:
        """Visit a tie at v in flat order, a row at a time: each row takes
        its first relay that still fits."""
        starts = np.flatnonzero(np.diff(qs, prepend=-1))
        edges = [*starts.tolist(), qs.size]
        rs = rs.tolist()
        for s, e, q in zip(edges, edges[1:], qs[starts].tolist()):
            for r in rs[s:e]:
                if v <= rem[r] + CAP_EPS:
                    take(q, r, v)
                    if not left:
                        return
                    break

    def chunks(lo: float, hi: float) -> Iterator[tuple[np.ndarray, ...]]:
        """The band's live submatrix, at most _BAND_MAX entries at a time:
        (its rows, live relay columns, their upper edges, the submatrix, the
        positions of its matched rows), with the rows and relays re-read
        before each chunk."""
        rows = np.flatnonzero(owner < 0)
        pos = 0
        while pos < rows.size:
            upper = np.minimum(hi, np.nextafter(remaining + CAP_EPS, np.inf))
            cols = np.flatnonzero(upper > lo)
            if not cols.size:
                return
            whole = 2 * cols.size >= m
            if whole:
                # read whole rows: a gather costs several streamed reads per
                # entry, and a dead relay's edge keeps its entries out
                cols = np.arange(m)
            step = max(1, _BAND_MAX // cols.size)
            start = int(rows[pos])
            end = min(start + step, n)
            stop = int(np.searchsorted(rows, end))
            if 2 * (stop - pos) >= end - start:
                # mostly unmatched rows: read the row range and leave its
                # matched rows out of the mask
                pos = stop
                block = np.arange(start, end)
                sub = b[start:end] if whole else b[start:end].take(cols, axis=1)
                dead = np.flatnonzero(owner[start:end] >= 0)
            else:
                block = rows[pos:pos + step]
                pos += block.size
                block = block[owner[block] < 0]
                if not block.size:
                    continue
                sub = b[block] if whole else b[np.ix_(block, cols)]
                dead = block[:0]
            yield block, cols, upper[cols], sub, dead

    def scan(sub: np.ndarray, lower: float, upper: np.ndarray,
             dead: np.ndarray) -> np.ndarray:
        """Mask of the chunk's entries in [lower, upper edge) of unmatched rows."""
        mask = sub < upper
        if lower > -np.inf:   # every benefit is above -inf
            mask &= sub >= lower
        mask[dead] = False
        return mask

    def pick(block: np.ndarray, cols: np.ndarray, sub: np.ndarray,
             mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the masked entries, in ascending flat order."""
        at = np.flatnonzero(mask)
        q, c = np.divmod(at, cols.size)
        return block[q], cols[c], sub.ravel()[at]

    hi = np.inf
    while left:
        fit = remaining + CAP_EPS
        # The band takes `count` sample entries below `hi` and below the
        # largest remaining capacity; entries above the latter fit nowhere.
        top = int(np.searchsorted(sample, fit.max(), side="right"))
        j = min(top - count, int(np.searchsorted(sample, hi)) - 1)
        lo = float(sample[j]) if j >= 0 else -np.inf
        kept, size, floor = [], 0, lo
        if j >= 0 and stride * (int(np.searchsorted(sample, lo, side="right"))
                                - int(np.searchsorted(sample, lo))) > _BAND_MAX:
            # the sample already shows a heavy tie at lo: split it off now
            floor = np.nextafter(lo, np.inf)
        for block, cols, upper, sub, dead in chunks(lo, hi):
            mask = scan(sub, floor, upper, dead)
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
            # the default sort is the faster one; only a stable sort keeps
            # ties in flat order, so a band with equal values is sorted again
            order = np.argsort(-band[2])
            if (np.diff(band[2][order]) == 0).any():
                order = np.argsort(-band[2], kind="stable")
            visit(*(c[order] for c in band))
            del band, order
        if floor > lo:
            for block, cols, upper, sub, dead in chunks(lo, floor):
                qs, rs, _ = pick(block, cols, sub, scan(sub, lo, upper, dead))
                visit_tie(qs, rs, lo)
                if not left:
                    break
        if j < 0:
            break
        hi = lo
        count = min(2 * count, count_max)
    matched = np.flatnonzero(owner >= 0)
    obj = 0.0
    for v in b[matched, owner[matched]].tolist():   # ascending requester order
        obj += v
    return owner, obj
