"""Network substrate: geography, latency, access capacity, failures.

Connectivity follows the in-network failure model: a failed region
partitions its affected peers from the server and from each other, while
paths between an affected peer and an unaffected peer stay usable. That
asymmetry is what makes relay delivery through unaffected peers work, and
why one predicate, FailureScenario.cut_off, decides every path: a
requester that is not cut off reaches the server, and a relay that is not
cut off reaches both the server and any requester. A FailureScenario
always holds its affected peer ids: inject_failure samples them from the
failed region, and trace replay takes them from the file.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from relaysim.model import DEFAULT_UPLINK_PROFILE, Peer

EARTH_RADIUS_KM = 6371.0

# Sentinel endpoint for the content server / CDN edge.
SERVER = "server"


class UnknownCityError(KeyError):
    pass


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


class CityTable:
    """Named city coordinates with great-circle distance lookup."""

    def __init__(self, coords: dict[str, tuple[float, float]]):
        if not coords:
            raise ValueError("city table must contain at least one city")
        for name, (lat, lon) in coords.items():
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ValueError(f"city {name!r}: coordinates out of range")
        self._coords = dict(coords)

    @classmethod
    def from_csv(cls, path) -> "CityTable":
        """Load name,lat,lon rows; a header row is detected and skipped."""
        coords = {}
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not "".join(row).strip():
                    continue
                if len(row) != 3:
                    raise ValueError(f"city file {path}: expected 3 columns, got {row!r}")
                name, lat_s, lon_s = (c.strip() for c in row)
                try:
                    lat, lon = float(lat_s), float(lon_s)
                except ValueError:
                    if not coords and name.lower() in ("name", "city"):
                        continue
                    raise ValueError(f"city file {path}: bad coordinates in {row!r}")
                coords[name] = (lat, lon)
        return cls(coords)

    def as_dict(self) -> dict[str, tuple[float, float]]:
        return dict(self._coords)

    def __contains__(self, name: str) -> bool:
        return name in self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def coords(self, name: str) -> tuple[float, float]:
        try:
            return self._coords[name]
        except KeyError:
            raise UnknownCityError(name) from None

    def distance_km(self, a: str, b: str) -> float:
        """Great-circle distance between two cities in the table."""
        if a == b:
            self.coords(a)
            return 0.0
        la1, lo1 = self.coords(a)
        la2, lo2 = self.coords(b)
        return haversine_km(la1, lo1, la2, lo2)


def latency_ms(distance_km: float, base_ms: float = 5.0, per_km_ms: float = 0.02) -> float:
    """One-way latency as an affine function of distance."""
    if distance_km < 0:
        raise ValueError(f"distance_km must be non-negative, got {distance_km}")
    return base_ms + per_km_ms * distance_km


@functools.lru_cache(maxsize=16)
def _capacity_cdf(profile_items: tuple) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Validate a capacity profile once and return its sorted buckets with
    the CDF that Generator.choice(buckets, p=probs) builds: cumsum, then
    divided by its last entry."""
    profile = dict(profile_items)
    buckets = sorted(profile)
    probs = np.array([profile[b] for b in buckets], dtype=float)
    if buckets[0] <= 0:
        raise ValueError("capacity buckets must be positive")
    if not abs(probs.sum() - 1.0) <= 1e-9 or (probs < 0).any():
        raise ValueError("profile probabilities must be non-negative and sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return tuple(float(b) for b in buckets), tuple(cdf.tolist())


def assign_bandwidth(rng: np.random.Generator, n: int,
                     profile: dict[float, float] | None = None,
                     downlink_factor: float = 4.0) -> tuple[list[float], list[float]]:
    """Draw n (uplink, downlink) kbps pairs from the bucketed capacity profile.

    One rng.random(n) draw located in the profile's CDF: the same draw,
    from the same stream position, as rng.choice(sorted buckets, p=probs,
    size=n), without rebuilding the CDF. The two columns are lists of
    shared bucket floats.
    """
    if profile is None:
        profile = DEFAULT_UPLINK_PROFILE
    buckets, cdf = _capacity_cdf(tuple(profile.items()))
    downs = tuple(b * downlink_factor for b in buckets)
    idx = np.searchsorted(cdf, rng.random(n), side="right").tolist()
    return [buckets[i] for i in idx], [downs[i] for i in idx]


def assign_isp(rng: np.random.Generator, n: int, isp_count: int) -> list[int]:
    """n uniform ISP labels in 1..isp_count."""
    if isp_count < 1:
        raise ValueError("isp_count must be at least 1")
    return rng.integers(1, isp_count + 1, size=n).tolist()


@dataclass(frozen=True)
class FailureScenario:
    """A resolved in-network failure: the affected peer ids are cut off
    over the half-open window [start_time, end_time).

    region names the failed city for the region metrics; None (trace
    replay, whose affected set comes from the file) matches no city.
    """

    affected: frozenset[int]
    region: str | None = None
    start_time: float = 0.0
    end_time: float = math.inf

    def cut_off(self, pid: int, t: float) -> bool:
        """True when peer pid is affected and t lies in [start_time, end_time)."""
        return pid in self.affected and self.start_time <= t < self.end_time


def inject_failure(region: str, ratio: float, peers: list[Peer],
                   rng: np.random.Generator) -> frozenset[int]:
    """Sample floor(ratio * |region peers|) affected peer ids.

    Sampling is uniform without replacement over the region's peers in id
    order. An empty region gives an empty set.
    """
    region_ids = sorted(p.id for p in peers if p.city == region)
    k = math.floor(ratio * len(region_ids))
    if k <= 0:
        return frozenset()
    picked = rng.choice(np.array(region_ids, dtype=np.int64), size=k, replace=False)
    return frozenset(int(i) for i in picked)
