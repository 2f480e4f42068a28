"""Bounds behind the acceptance criteria that the model cannot meet.

Criterion 1 asks path-aware's success ratio at 16 MB to beat random's by
at least 0.10 on the desk grid (500 peers, failure ratio 0.6, ten seeds).
A relay-served request lasts at least the transfer at its requester's
downlink, size·8 / downlink, and ends by its requester's departure, so no
strategy serves more than the server-served requests plus the relay-phase
requests whose session can hold that transfer. That ceiling is the same
for every strategy on a seed, and it lies less than 0.10 above random's
success ratio, so the gap cannot be reached.

Criterion 3 asks path-aware's average attempts per relay-served request at
16 MB to be at most half of random's on the same grid. An average over
relay-served requests counts the attempt that served each one, so it is at
least 1.0 for any strategy; when random's average is below 2.0, half of it
is below 1.0 and no path-aware list can reach it.

These tests pin those facts on the desk grid, so both criteria's FAILs
stand explained.
"""

import numpy as np
import pytest

from relaysim.engine import Simulation
from relaysim.model import SimConfig

from helpers import rows_of

DESK_SEEDS = tuple(range(10))
SIZE_KB = 16000.0


@pytest.fixture(scope="module")
def desk_16mb():
    """Metrics, outcomes and population of every desk seed at 16 MB, per strategy."""
    runs = {}
    for strategy in ("random", "path-aware"):
        for seed in DESK_SEEDS:
            sim = Simulation(SimConfig(peer_count=500, failure_ratio=0.6, sim_duration=3600.0,
                                       content_size_kb=SIZE_KB, strategy=strategy,
                                       rng_seed=seed))
            runs.setdefault(strategy, []).append((sim.run(), sim.outcomes, sim.population))
    return runs


def mean_attempts(runs):
    """The acceptance suite's cell mean: the per-seed averages, averaged."""
    return sum(report.avg_repeated_requests for report, _, _ in runs) / len(runs)


def ceiling(report, outcomes, population):
    """The success ratio if every relay-phase request whose session can
    hold the transfer at its requester's downlink were served."""
    size_kbits = SIZE_KB * 8.0
    p, rows = population, rows_of(population, outcomes.requester_id[outcomes.entered_relay_phase])
    holdable = np.count_nonzero(p.dep[rows] - p.join[rows] >= size_kbits / p.downlink[rows])
    return (report.served_by_server + int(holdable)) / report.total_requests


class TestCriterion1Bound:
    def test_no_strategy_beats_the_ceiling(self, desk_16mb):
        ceilings = [ceiling(*run) for run in desk_16mb["random"]]
        assert ceilings == [ceiling(*run) for run in desk_16mb["path-aware"]]
        for runs in desk_16mb.values():
            for (report, _, _), top in zip(runs, ceilings):
                assert report.success_ratio <= top

    def test_the_ceiling_is_short_of_random_plus_the_gap(self, desk_16mb):
        gaps = [ceiling(*run) - run[0].success_ratio for run in desk_16mb["random"]]
        assert all(0.0 <= gap < 0.10 for gap in gaps)
        # so the 16 MB cell means, criterion 1's gap, cannot differ by 0.10
        assert sum(gaps) / len(gaps) < 0.10


class TestCriterion3Bound:
    def test_every_relay_served_request_took_an_attempt(self, desk_16mb):
        for runs in desk_16mb.values():
            relay_served = [o for _, outcomes, _ in runs for o in outcomes
                            if isinstance(o.served_by, int)]
            assert relay_served
            assert all(o.attempts >= 1 for o in relay_served)
        assert mean_attempts(desk_16mb["path-aware"]) >= 1.0

    def test_half_of_random_is_below_one_attempt(self, desk_16mb):
        random_mean = mean_attempts(desk_16mb["random"])
        assert random_mean < 2.0
        # so path <= 0.5 * random, criterion 3's halving, cannot hold
        assert 0.5 * random_mean < 1.0 <= mean_attempts(desk_16mb["path-aware"])
