"""Solver kernel tests: tie-breaking, oracles, sequential references."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaysim import kernels
from relaysim.kernels import CAP_EPS, decode_assignment, exact_best, greedy_assign
from relaysim.selection import solve_greedy


def brute_force(b, caps):
    """Independent reference: enumerate assignments with itertools.

    Ties on the objective keep the smallest assignment code, matching the
    kernel contract.
    """
    n, m = b.shape
    best = (-1, 0.0)
    for combo in itertools.product(range(m), repeat=n):
        loads = np.zeros(m)
        obj = 0.0
        for q, r in enumerate(combo):
            loads[r] += b[q, r]
            obj += b[q, r]
        if np.all(loads <= caps + CAP_EPS):
            k = sum(r * m ** q for q, r in enumerate(combo))
            if best[0] < 0 or obj > best[1] or (obj == best[1] and k < best[0]):
                best = (k, obj)
    return best


def sequential_greedy(b, caps):
    """Reference greedy: stable argsort of every benefit, then one loop."""
    n, m = b.shape
    assign = np.full(n, -1, dtype=np.int64)
    if n == 0 or m == 0:
        return assign, 0.0
    remaining = caps.astype(float)
    for idx in np.argsort(-b.ravel(), kind="stable"):
        q, r = divmod(int(idx), m)
        if assign[q] < 0 and b[q, r] <= remaining[r] + CAP_EPS:
            assign[q] = r
            remaining[r] -= b[q, r]
    obj = 0.0
    for q in range(n):
        if assign[q] >= 0:
            obj += b[q, assign[q]]
    return assign, float(obj)


def assert_exact_matches_brute_force(b, caps):
    want = brute_force(b, caps) if b.shape[0] else (0, 0.0)
    assert exact_best(b, caps) == want


def assert_greedy_matches_reference(b, caps):
    assign, obj = greedy_assign(b, caps)
    want_assign, want_obj = sequential_greedy(b, caps)
    assert np.array_equal(assign, want_assign)
    assert obj == want_obj


# Few distinct values, zeros among them, so instances are full of ties.
TIE_VALUES = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0)
tie_values = st.sampled_from(TIE_VALUES)
any_values = st.one_of(tie_values, st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def instances(draw, max_n, max_m, values=any_values, cap_scale=3.0):
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, max_m))
    b = draw(arrays(np.float64, (n, m), elements=values))
    caps = draw(arrays(np.float64, m, elements=values)) * cap_scale
    return b, caps


class TestBackendSelection:
    def test_backend_name(self):
        assert kernels.backend() == "numpy"


class TestExact:
    def test_two_by_two_oracle(self):
        # worked by hand: q0->r1 (8) + q1->r0 (9) = 17 is the only way to
        # keep r0's load at 10 or below while serving both
        b = np.array([[10.0, 8.0], [9.0, 1.0]])
        caps = np.array([10.0, 8.0])
        k, obj = exact_best(b, caps)
        assert obj == 17.0
        assert decode_assignment(k, 2, 2) == (1, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            b = rng.integers(0, 11, size=(n, m)).astype(float)
            caps = rng.integers(0, 21, size=m).astype(float)
            got = exact_best(b, caps)
            want = brute_force(b, caps)
            assert got == want, (b, caps)

    def test_tie_break_smallest_code(self):
        b = np.full((2, 2), 5.0)
        caps = np.array([100.0, 100.0])
        k, obj = exact_best(b, caps)
        assert obj == 10.0
        assert k == 0

    def test_infeasible(self):
        k, obj = exact_best(np.array([[5.0]]), np.array([1.0]))
        assert k == -1 and obj == 0.0

    def test_empty_instance(self):
        k, obj = exact_best(np.empty((0, 3)), np.array([1.0, 1.0, 1.0]))
        assert (k, obj) == (0, 0.0)

    def test_scaling_keeps_assignment_optimal(self):
        # scaling every benefit by c > 0 rescales caps too; the old argmax
        # stays optimal even if the reported code moves within a tie class
        rng = np.random.default_rng(37)
        for c in (2.0, 3.0, 0.5):
            b = rng.integers(0, 11, size=(3, 3)).astype(float)
            caps = rng.integers(5, 25, size=3).astype(float)
            k, obj = exact_best(b, caps)
            if k < 0:
                continue
            k2, obj2 = exact_best(b * c, caps * c)
            combo = decode_assignment(k, 3, 3)
            rescored = sum(b[q, r] * c for q, r in enumerate(combo))
            assert obj2 == pytest.approx(rescored, rel=1e-12)
            assert obj2 == pytest.approx(obj * c, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(instances(max_n=4, max_m=4))
    def test_matches_brute_force_property(self, inst):
        assert_exact_matches_brute_force(*inst)

    @settings(max_examples=100, deadline=None)
    @given(instances(max_n=5, max_m=3, values=tie_values, cap_scale=1.0))
    def test_matches_brute_force_ties(self, inst):
        assert_exact_matches_brute_force(*inst)

    def test_cap_reached_by_rounding(self):
        # relay 0's limit is 0.599999999 + CAP_EPS == 0.6; in ascending
        # requester order its load 0.1 + 0.2 + 0.3 sums to
        # 0.6000000000000001 and is over it, though 0.3 + 0.2 + 0.1 == 0.6
        b = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        caps = np.array([0.599999999, 5.0])
        assert exact_best(b, caps) == brute_force(b, caps) == (1, 0.5)
        caps[0] = 0.6
        assert exact_best(b, caps) == brute_force(b, caps) == (0, 0.1 + 0.2 + 0.3)

    def test_all_ties_at_full_size(self):
        # every complete assignment ties: the smallest code, without
        # walking all 8**8 of them
        for v in (5.0, 0.1, 0.0):
            assert exact_best(np.full((8, 8), v), np.full(8, 100.0))[0] == 0


class TestDecode:
    def test_roundtrip(self):
        n, m = 3, 4
        for k in range(m ** n):
            combo = decode_assignment(k, n, m)
            assert len(combo) == n
            assert all(0 <= r < m for r in combo)
            assert sum(r * m ** q for q, r in enumerate(combo)) == k

    def test_zero(self):
        assert decode_assignment(0, 3, 5) == (0, 0, 0)


class TestGreedy:
    def test_two_by_two_oracle(self):
        # greedy grabs the 10 first, starving r0 for the 9; ends at 11
        b = np.array([[10.0, 8.0], [9.0, 1.0]])
        caps = np.array([10.0, 8.0])
        assign, obj = greedy_assign(b, caps)
        assert list(assign) == [0, 1]
        assert obj == 11.0

    def test_never_exceeds_exact_when_total(self):
        # a fully-matched greedy result lives in exact's search space, so
        # it can never beat the optimum; a partial matching can (it may
        # strand a requester that every total assignment must pay for)
        rng = np.random.default_rng(23)
        compared = 0
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            b = rng.integers(0, 11, size=(n, m)).astype(float)
            caps = rng.integers(0, 21, size=m).astype(float)
            k, e = exact_best(b, caps)
            assign, g = greedy_assign(b, caps)
            if k < 0 or np.any(assign < 0):
                continue
            assert g <= e + 1e-9
            compared += 1
        assert compared > 150

    def test_capacity_respected(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 6))
            b = rng.uniform(0, 10, size=(n, m))
            caps = rng.uniform(0, 12, size=m)
            assign, _ = greedy_assign(b, caps)
            loads = np.zeros(m)
            for q, r in enumerate(assign):
                if r >= 0:
                    loads[r] += b[q, r]
            assert np.all(loads <= caps + CAP_EPS)

    def test_tie_break_flat_order(self):
        # equal benefits resolve in requester-major order
        b = np.full((2, 2), 3.0)
        caps = np.array([3.0, 3.0])
        assign, obj = greedy_assign(b, caps)
        assert list(assign) == [0, 1]
        assert obj == 6.0

    @pytest.mark.parametrize("band_max", [kernels._BAND_MAX, 1])
    def test_entry_at_cap_plus_eps_fits(self, band_max):
        # the fit rule is v <= remaining + CAP_EPS, equality included, in
        # the sorted visit and (at 1, where the tie at v is split off) in
        # the row-at-a-time tie visit alike
        v = 1.0 + CAP_EPS
        b = np.array([[v, 0.5], [0.25, v]])
        caps = np.array([1.0, 1.0])
        with mock.patch.object(kernels, "_BAND_MAX", band_max):
            assign, obj = greedy_assign(b, caps)
        assert list(assign) == [0, 1] and obj == 2 * v
        assert_greedy_matches_reference(b, caps)

    def test_unmatched_marked(self):
        assign, obj = greedy_assign(np.array([[5.0]]), np.array([1.0]))
        assert list(assign) == [-1]
        assert obj == 0.0

    def test_empty(self):
        assign, obj = greedy_assign(np.empty((0, 2)), np.array([1.0, 1.0]))
        assert len(assign) == 0 and obj == 0.0

    @settings(max_examples=300, deadline=None)
    @given(instances(max_n=12, max_m=6))
    def test_matches_sequential_reference(self, inst):
        assert_greedy_matches_reference(*inst)

    @settings(max_examples=200, deadline=None)
    @given(instances(max_n=40, max_m=8, values=tie_values, cap_scale=1.0))
    def test_matches_reference_with_small_bands(self, inst):
        # a tiny sample, band limit and slice force many bands, a sampling
        # stride above 1, the split-off path for heavy ties and sorted bands
        # visited in several slices
        with mock.patch.object(kernels, "_SAMPLE", 16), \
                mock.patch.object(kernels, "_BAND_MAX", 4), \
                mock.patch.object(kernels, "_SLICE", 3):
            assert_greedy_matches_reference(*inst)

    @pytest.mark.parametrize("cap_lo, cap_hi", [(20.0, 120.0), (1.0, 5.0), (0.0, 0.5)])
    def test_matches_reference_at_scale(self, cap_lo, cap_hi):
        rng = np.random.default_rng(41)
        b = rng.uniform(0.0, 10.0, size=(400, 120))
        b[rng.random(b.shape) < 0.2] = 0.0
        caps = rng.uniform(cap_lo, cap_hi, size=120)
        assert_greedy_matches_reference(b, caps)

    @pytest.mark.parametrize("band_max", [kernels._BAND_MAX, 1024])
    @pytest.mark.parametrize("seed, n, m, cap_lo, cap_hi", [
        pytest.param(43, 400, 120, 20, 121, id="20-121"),
        pytest.param(43, 400, 120, 5, 31, id="5-31"),
        # the 3000 x 800 integer-tie instance at a tenth of each side: at
        # 1024 the first band is a heavy tie at 10 that matches everyone
        pytest.param(5, 300, 80, 20, 121, id="tie-300x80")])
    def test_matches_reference_on_integer_benefits(self, band_max, seed, n, m, cap_lo, cap_hi):
        # eleven values, so every band edge sits on a tie; at 1024 the
        # ties at lo are split off and scanned on their own
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 11, size=(n, m)).astype(float)
        caps = rng.integers(cap_lo, cap_hi, size=m).astype(float)
        with mock.patch.object(kernels, "_BAND_MAX", band_max):
            assert_greedy_matches_reference(b, caps)

    def test_heavy_tie_scan_stays_below_one_index_array(self):
        # one tie covers the whole matrix; the sweep holds at most a chunk
        # of it at a time, far below one int64 per entry
        b = np.ones((600, 400))
        caps = np.ones(400)
        with mock.patch.object(kernels, "_BAND_MAX", 1024):
            tracemalloc.start()
            try:
                assign, obj = greedy_assign(b, caps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert list(assign) == list(range(400)) + [-1] * 200
        assert obj == 400.0
        assert peak < b.size * np.dtype(np.int64).itemsize


class TestCallerInputs:
    """The solvers read the caller's b and caps and never write them.

    C-contiguous float64 inputs pass through `np.ascontiguousarray` as
    the caller's own arrays, so a solver that kept its sweep state in them
    would change them in place.
    """

    def instances(self, n, m):
        rng = np.random.default_rng(47)
        uniform = (rng.uniform(0.0, 10.0, size=(n, m)), rng.uniform(1.0, 5.0, size=m))
        ties = (rng.integers(0, 11, size=(n, m)).astype(float),
                rng.integers(20, 121, size=m).astype(float))
        return [uniform, ties]

    @pytest.mark.parametrize("solve", [greedy_assign, solve_greedy], ids=lambda f: f.__name__)
    def test_greedy_leaves_inputs_unchanged(self, solve):
        # at 1024 the integer instance's first band is a heavy tie at 10
        with mock.patch.object(kernels, "_BAND_MAX", 1024):
            for b, caps in self.instances(300, 80):
                self.check_unchanged(solve, b, caps)

    def test_exact_leaves_inputs_unchanged(self):
        for b, caps in self.instances(6, 5):
            self.check_unchanged(exact_best, b, caps * 4.0)

    @staticmethod
    def check_unchanged(solve, b, caps):
        assert b.flags.c_contiguous and b.dtype == np.float64 and caps.dtype == np.float64
        before = b.tobytes(), caps.tobytes()
        solve(b, caps)
        assert (b.tobytes(), caps.tobytes()) == before
