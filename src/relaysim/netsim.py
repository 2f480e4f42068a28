"""Network substrate: geography, latency, access capacity, failures.

The latency and capacity models read their parameters from a SimConfig,
checked by config_errors where a run's config enters, not again here.

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

from relaysim.model import PeerColumns, SimConfig

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
    skipped. Rows of another width, coordinates that are not numbers and a
    city named twice raise ValueError; config_errors checks the table itself."""
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
            if name in coords:
                raise ValueError(f"city file {path}: city {name!r} is listed twice")
            coords[name] = (lat, lon)
    return coords


@functools.lru_cache(maxsize=16)
def handshake_table(coords: tuple[tuple[float, float], ...], base_ms: float,
                    per_km_ms: float) -> tuple[tuple[float, ...], ...]:
    """Two-way handshake seconds, [a][b] from a requester at coords[a] to a
    relay at coords[b] (0 km apart when equal): twice the one-way latency,
    2 * (base_ms + per_km_ms * km) / 1000. Cached, as each run asks."""
    return tuple(tuple(2.0 * (base_ms + per_km_ms * haversine_km(*a, *b)) / 1000.0
                       for b in coords) for a in coords)


def assign_bandwidth(cfg: SimConfig, rng: np.random.Generator,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (uplink, downlink) kbps pairs from cfg.uplink_profile, the
    downlink cfg.downlink_factor times the uplink; config_errors checks both.

    One rng.random(n) draw located in the profile's CDF, the same draw as
    rng.choice(sorted buckets, p=probs, size=n). Returns float64 columns.
    """
    buckets = sorted(cfg.uplink_profile)
    cdf = np.array([cfg.uplink_profile[b] for b in buckets], np.float64).cumsum()
    cdf /= cdf[-1]
    uplink = np.array(buckets, np.float64)[np.searchsorted(cdf, rng.random(n), side="right")]
    return uplink, uplink * cfg.downlink_factor


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
