"""Network substrate: geography, latency, access capacity, failures.

Connectivity follows the in-network failure model: a failed region
partitions its affected peers from the server and from each other, while
paths between an affected and an unaffected peer stay usable. So one
predicate, FailureScenario.cut_off, decides every path: a requester that
is not cut off reaches the server, and a relay that is not reaches the
server and any requester. inject_failure samples the affected peer ids
from the failed region; trace replay takes them from the file.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from relaysim.model import DEFAULT_UPLINK_PROFILE, PeerColumns

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
    """Named city coordinates (lat, lon) in degrees, checked in range."""

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

    def coords(self, name: str) -> tuple[float, float]:
        try:
            return self._coords[name]
        except KeyError:
            raise UnknownCityError(name) from None


def latency_ms(distance_km: float, base_ms: float = 5.0, per_km_ms: float = 0.02) -> float:
    """One-way latency as an affine function of distance."""
    if distance_km < 0:
        raise ValueError(f"distance_km must be non-negative, got {distance_km}")
    return base_ms + per_km_ms * distance_km


@functools.lru_cache(maxsize=16)
def handshake_table(coords: tuple[tuple[float, float], ...], base_ms: float,
                    per_km_ms: float) -> tuple[tuple[float, ...], ...]:
    """Two-way handshake seconds, [a][b] from a requester at coords[a] to a
    relay at coords[b] (0 km apart when equal); cached, as each run asks."""
    return tuple(tuple(2.0 * latency_ms(haversine_km(*a, *b), base_ms, per_km_ms) / 1000.0
                       for b in coords) for a in coords)


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
                     downlink_factor: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (uplink, downlink) kbps pairs from the bucketed capacity profile.

    One rng.random(n) draw located in the profile's CDF, the same draw as
    rng.choice(sorted buckets, p=probs, size=n). Returns float64 columns.
    """
    if profile is None:
        profile = DEFAULT_UPLINK_PROFILE
    buckets, cdf = _capacity_cdf(tuple(profile.items()))
    uplink = np.array(buckets)[np.searchsorted(cdf, rng.random(n), side="right")]
    return uplink, uplink * downlink_factor


def assign_isp(rng: np.random.Generator, n: int, isp_count: int) -> np.ndarray:
    """n uniform ISP labels in 1..isp_count, as an int64 column."""
    if isp_count < 1:
        raise ValueError("isp_count must be at least 1")
    return rng.integers(1, isp_count + 1, size=n)


@dataclass(frozen=True)
class FailureScenario:
    """A resolved in-network failure: the affected peer ids are cut off
    over [start_time, end_time). region names the failed city for the
    region metrics; None (trace replay) matches no city.
    """

    affected: frozenset[int]
    region: str | None = None
    start_time: float = 0.0
    end_time: float = math.inf

    def cut_off(self, pid: int, t: float) -> bool:
        """True when peer pid is affected and t lies in [start_time, end_time)."""
        return pid in self.affected and self.start_time <= t < self.end_time



def inject_failure(region: str, ratio: float, columns: PeerColumns,
                   rng: np.random.Generator) -> frozenset[int]:
    """Sample floor(ratio * |region peers|) affected peer ids.

    Sampling is uniform without replacement over the region's peers in id
    order. An empty region gives an empty set.
    """
    region_ids = np.sort(columns.ids[columns.in_city(region)])
    k = math.floor(ratio * len(region_ids))
    if k <= 0:
        return frozenset()
    return frozenset(rng.choice(region_ids, size=k, replace=False).tolist())
