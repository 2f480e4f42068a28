"""Network substrate: geography, latency, access capacity, failures.

Connectivity follows the in-network failure model: a failed region
partitions its affected peers from the server and from each other, while
paths between an affected and an unaffected peer stay usable. So one
rule decides every path: an affected peer is cut off over the failure
window. A requester that is not reaches the server, and a relay that is
not reaches the server and any requester. inject_failure samples the
affected peer ids from the failed region; trace replay reads them.
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


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def read_city_file(path) -> dict[str, tuple[float, float]]:
    """A city table from name,lat,lon rows; a header row is detected and
    skipped. Rows of another width or with coordinates that are not numbers
    raise ValueError; config_errors checks the table itself."""
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
    return coords


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


@dataclass(frozen=True, eq=False)
class FailureScenario:
    """A resolved in-network failure: the affected peer ids, kept as a
    sorted read-only int64 array (ValueError if they are not integers), are
    cut off over [start_time, end_time), which must not be empty (ValueError;
    NaN never is). region names the failed city for the region metrics;
    None (trace replay) matches no city."""

    affected: np.ndarray
    region: str | None = None
    start_time: float = 0.0
    end_time: float = math.inf

    def __post_init__(self):
        if not self.start_time < self.end_time:
            raise ValueError(f"failure window [{self.start_time}, {self.end_time}) needs "
                             "start_time < end_time")
        ids = self.affected if isinstance(self.affected, np.ndarray) else np.array([*self.affected])
        if ids.dtype.kind not in "iu" and len(ids):   # no ids read as float64
            raise ValueError(f"affected ids must be integers, not {ids.dtype}")
        ids = np.sort(ids).astype(np.int64, copy=False)
        ids.flags.writeable = False
        object.__setattr__(self, "affected", ids)


def inject_failure(region: str, ratio: float, columns: PeerColumns,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample floor(ratio * |region peers|) affected peer ids, a sorted array.

    Sampling is uniform without replacement over the region's peers in id
    order. An empty region gives an empty array.
    """
    region_ids = np.sort(columns.ids[columns.in_city(region)])
    return np.sort(rng.choice(region_ids, size=math.floor(ratio * len(region_ids)), replace=False))
