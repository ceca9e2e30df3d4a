"""Propagation and rate adaptation.

Path loss follows the ITU indoor model for a single floor,

    PL(dB) = 20 log10(f_MHz) + N log10(d_m) + L_f - 28

with a distance power loss coefficient N of 31 for residential-style
environments and no floor penetration term.  Distances below ``min_distance_m``
are clamped, keeping the model defined at the transmitter.

Rate adaptation maps link RSSI to the fastest MCS whose minimum sensitivity
is met.  The shipped tables cover the whole usable span down to the radio
sensitivity floor (-90 dBm), so any link good enough to associate on is good
enough to carry frames, just slowly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import Band, Position, RadioConfig


# (low, high) of each term, which keep every range the model gives,
# 10 ** (budget_dB / N), a finite float for any link budget under 1000 dB
# and any frequency from 1 MHz up, whose 20 log10(f) term is then not
# negative (EngineParams holds its band table to that); N = 10 is a
# path-loss exponent of 1, below any measured indoor value
_BOUNDS = {
    "distance_power_loss_coeff": (10.0, 1000.0),
    "floor_penetration_db": (-1000.0, 1000.0),
    "constant_offset_db": (-1000.0, 1000.0),
}


@dataclass(frozen=True)
class PropagationParams:
    distance_power_loss_coeff: float = 31.0
    floor_penetration_db: float = 0.0
    constant_offset_db: float = -28.0
    min_distance_m: float = 1.0

    def __post_init__(self) -> None:
        for name, (low, high) in _BOUNDS.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(f"{name} must lie in [{low:g}, {high:g}], got {value!r}")
        if self.min_distance_m <= 0:
            raise ValueError("min_distance_m must be positive")


DEFAULT_PROPAGATION = PropagationParams()


def path_loss_db(
    frequency_mhz: float, distance_m: float, p: PropagationParams = DEFAULT_PROPAGATION
) -> float:
    if frequency_mhz <= 0 or frequency_mhz >= 100000:
        raise ValueError(f"frequency out of range: {frequency_mhz} MHz")
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    d = max(distance_m, p.min_distance_m)
    return (
        20.0 * math.log10(frequency_mhz)
        + p.distance_power_loss_coeff * math.log10(d)
        + p.floor_penetration_db
        + p.constant_offset_db
    )


def distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def rssi_dbm(
    tx: RadioConfig,
    tx_pos: Position,
    rx_pos: Position,
    p: PropagationParams,
    frequency_mhz: float,
) -> float:
    """Received power at ``rx_pos`` from transmitter ``tx`` at ``tx_pos``."""
    return tx.tx_power_dbm - path_loss_db(frequency_mhz, distance(tx_pos, rx_pos), p)


def rssi_column(
    tx_pos: Position,
    tx_power_dbm: float,
    frequency_mhz: float,
    points: Sequence[Position],
    p: PropagationParams,
) -> list[float]:
    """``rssi_dbm`` from one transmitter to each of ``points``, bit for bit:
    ``path_loss_db`` inlined, its frequency term and check made once, its
    terms added in its order."""
    if frequency_mhz <= 0 or frequency_mhz >= 100000:
        raise ValueError(f"frequency out of range: {frequency_mhz} MHz")
    fterm = 20.0 * math.log10(frequency_mhz)
    n, floor, offset = p.distance_power_loss_coeff, p.floor_penetration_db, p.constant_offset_db
    dmin, (tx_x, tx_y) = p.min_distance_m, tx_pos
    hypot, log10 = math.hypot, math.log10
    return [
        tx_power_dbm - (fterm + n * log10(d if d > dmin else dmin) + floor + offset)
        for d in [hypot(tx_x - x, tx_y - y) for x, y in points]
    ]


def max_range_m(
    tx: RadioConfig,
    rx_sensitivity_dbm: float,
    p: PropagationParams,
    frequency_mhz: float,
) -> float:
    """Largest distance at which the received power still meets the threshold.

    Inverse of the path loss model; round-trips with :func:`rssi_dbm` to
    numerical precision.
    """
    if rx_sensitivity_dbm >= tx.tx_power_dbm:
        raise ValueError("threshold must lie below tx power")
    if frequency_mhz <= 0 or frequency_mhz >= 100000:
        raise ValueError(f"frequency out of range: {frequency_mhz} MHz")
    exponent = (
        tx.tx_power_dbm
        - rx_sensitivity_dbm
        - 20.0 * math.log10(frequency_mhz)
        - p.floor_penetration_db
        - p.constant_offset_db
    ) / p.distance_power_loss_coeff
    return 10.0 ** exponent


@dataclass(frozen=True)
class McsEntry:
    mcs: int
    min_rssi_dbm: float
    rate_bps_1ss: float
    rate_bps_2ss: float


@dataclass(frozen=True)
class McsTable:
    band: Band
    channel_width_mhz: int
    entries: tuple[McsEntry, ...]
    thresholds: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("MCS table must not be empty")
        prev = None
        for e in self.entries:
            if prev is not None:
                if e.min_rssi_dbm <= prev.min_rssi_dbm:
                    raise ValueError("MCS thresholds must strictly increase")
                if e.rate_bps_1ss <= prev.rate_bps_1ss or e.rate_bps_2ss <= prev.rate_bps_2ss:
                    raise ValueError("MCS rates must strictly increase")
            if e.rate_bps_1ss <= 0 or e.rate_bps_2ss <= 0:
                raise ValueError("MCS rates must be positive")
            prev = e
        object.__setattr__(
            self, "thresholds", tuple(e.min_rssi_dbm for e in self.entries)
        )


def mcs_for_rssi(
    table: McsTable, rssi: float, spatial_streams: int = 2
) -> Optional[tuple[int, float]]:
    """Fastest (mcs index, rate in bps) usable at ``rssi``.

    Returns None when the signal sits below the lowest entry: the link cannot
    carry data at all.
    """
    idx = bisect_right(table.thresholds, rssi) - 1
    if idx < 0:
        return None
    e = table.entries[idx]
    rate = e.rate_bps_1ss if spatial_streams == 1 else e.rate_bps_2ss
    return e.mcs, rate


def _table(band: Band, width: int, rows: list[tuple[int, float, float, float]]) -> McsTable:
    return McsTable(
        band=band,
        channel_width_mhz=width,
        entries=tuple(McsEntry(m, thr, r1 * 1e6, r2 * 1e6) for m, thr, r1, r2 in rows),
    )


# 2.4 GHz, HT 20 MHz.  Thresholds span the usable window from the sensitivity
# floor up to short range; rates are the familiar 1- and 2-stream ladder.
DEFAULT_MCS_2G4 = _table(
    Band.GHZ_2_4,
    20,
    [
        (0, -90.0, 6.5, 13.0),
        (1, -85.0, 13.0, 26.0),
        (2, -81.0, 19.5, 39.0),
        (3, -77.0, 26.0, 52.0),
        (4, -72.0, 39.0, 78.0),
        (5, -67.0, 52.0, 104.0),
        (6, -62.0, 58.5, 117.0),
        (7, -57.0, 72.2, 144.4),
    ],
)

# 5 GHz, VHT 80 MHz.  Calibrated so that -77 dBm lands on MCS 1.
DEFAULT_MCS_5G = _table(
    Band.GHZ_5,
    80,
    [
        (0, -90.0, 29.25, 58.5),
        (1, -79.0, 58.5, 117.0),
        (2, -76.0, 87.75, 175.5),
        (3, -73.0, 117.0, 234.0),
        (4, -70.0, 175.5, 351.0),
        (5, -66.0, 234.0, 468.0),
        (6, -62.0, 263.25, 526.5),
        (7, -59.0, 292.5, 585.0),
        (8, -57.0, 351.0, 702.0),
        (9, -54.0, 433.35, 866.7),
    ],
)

DEFAULT_MCS_TABLES = {Band.GHZ_2_4: DEFAULT_MCS_2G4, Band.GHZ_5: DEFAULT_MCS_5G}
