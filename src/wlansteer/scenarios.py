"""Scenario generators, deployment sampling and the simulation campaign grids.

``ScenarioSpec`` describes and checks a layout, and ``build_topology`` is its
one builder.  The spec's area picks one of two families:

* ``circle``: the AP at the origin serving a disk whose radius is its own
  2.4 GHz limit (or 1.2 times that, to study stations beyond reach), with
  two or four extenders on the axes, all hanging off the AP;
* ``home``: a rectangular flat with the AP near one end and one or two
  daisy-chained extenders stretched towards the far end.

Either way an extender sits where its 5 GHz uplink lands on a target signal
level.

Station draws are reproducible: deployment ``i`` of a scenario uses an RNG
substream derived from (scenario seed, i), so any deployment can be
regenerated in isolation and the draw order never depends on worker layout
or mechanism.  The substream is the one numpy's ``Generator`` gives
``SeedSequence([seed, i])``, but no numpy generator code runs.  There is one
draw, ``draw_slice``, which draws a run of deployments at once in numpy
integer arithmetic (``deployment_draw`` is its slice of one): ``SeedSequence``
hashing in uint32, PCG64's 128-bit state in uint64 limbs (every output of a
lane at once, by jumping ahead from its seeded state), ``uniform`` as
``high * ((x >> 11) * 2**-53)``, and ``permutation`` as Fisher-Yates on
masked-rejection draws from the outputs' 32-bit halves.  The tests keep the
``Generator`` draw as its oracle, bit for bit.

The seven campaign grids are one table, ``_GRIDS``, and one builder,
``_grid``.  A test is a few curves (extenders, channel plan, selection),
each with one ``ScenarioSpec``, swept over steps shared by all of them:
extender level x per-station demand x neighbour load.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    DEFAULT_BAND_MHZ,
    Band,
    ChannelId,
    ExternalLoad,
    Node,
    NodeKind,
    Position,
    RadioConfig,
    Topology,
    TrafficProfile,
    make_node_map,
)
from .radio import DEFAULT_PROPAGATION, PropagationParams, max_range_m
from .selection import Mechanism, SelectionConfig, capable_count

STA_ID_BASE = 10
BACKHAUL_CHANNEL = ChannelId(Band.GHZ_5, 36)
DEFAULT_EXTENDER_RSSI_DBM = -70.0

HOME_WIDTH_M = 45.0
HOME_HEIGHT_M = 10.0
HOME_AP_POS = (2.5, 5.0)

# named seed for the one-shot interference study deployment
FIXED_DEPLOYMENT_SEED = 2404


class AreaKind(enum.Enum):
    """Where stations are drawn, which also picks the layout family:
    ``HOME_RECT`` is the home flat, the circle areas the disk around the AP."""

    CIRCLE_DMAX = "circle_dmax"
    CIRCLE_1P2_DMAX = "circle_1p2_dmax"
    HOME_RECT = "home_rect"


def _access_radio(channel_number: int) -> RadioConfig:
    """A 2.4 GHz radio: a serving node's access radio, or a station's on channel 1."""
    return RadioConfig(band=Band.GHZ_2_4, channel=ChannelId(Band.GHZ_2_4, channel_number))


# every station's one radio
STATION_RADIO = _access_radio(1)


def _backhaul_radio() -> RadioConfig:
    return RadioConfig(band=Band.GHZ_5, channel=BACKHAUL_CHANNEL)


def _serving_radios(channel_number: int) -> tuple[RadioConfig, RadioConfig]:
    """An AP's or extender's access radio on ``channel_number``, then its backhaul radio."""
    return (_access_radio(channel_number), _backhaul_radio())


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible deployment family: fixed infrastructure, random stations."""

    area: AreaKind
    n_sta: int = 10
    n_extenders: int = 0
    channel_plan: str = "multi"  # "multi" | "single"
    k: int = 1000
    seed: int = 1
    fixed_positions: Optional[tuple[Position, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.area, AreaKind):
            raise ValueError(f"unknown area {self.area!r}")
        if self.channel_plan not in ("multi", "single"):
            raise ValueError(f"unknown channel plan {self.channel_plan!r}")
        for name in ("n_sta", "n_extenders", "k", "seed"):  # a bool is no count
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        home = self.area is AreaKind.HOME_RECT
        if not home and self.n_extenders not in (0, 2, 4):
            raise ValueError("circle layouts support 0, 2 or 4 extenders")
        if home and self.n_extenders not in (0, 1, 2):
            raise ValueError("home layouts support 0, 1 or 2 extenders")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n_sta < 1:
            raise ValueError("n_sta must be at least 1")
        if self.fixed_positions is not None and len(self.fixed_positions) != self.n_sta:
            raise ValueError(f"fixed_positions must hold n_sta positions, "
                             f"got {len(self.fixed_positions)}")


def circle_radius_m(
    area: AreaKind,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> float:
    """Radius of the station disk: the AP's own 2.4 GHz reach, or 1.2x it."""
    base = max_range_m(_access_radio(1), -90.0, p, band_mhz[Band.GHZ_2_4])
    if area is AreaKind.CIRCLE_1P2_DMAX:
        return 1.2 * base
    return base


def extender_distance_m(
    rssi_target_dbm: float,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> float:
    """Spacing at which the 5 GHz uplink lands exactly on the target level."""
    return max_range_m(_backhaul_radio(), rssi_target_dbm, p, band_mhz[Band.GHZ_5])


def topology_key(spec: ScenarioSpec, rssi_ap_e_dbm: Optional[float] = None) -> tuple:
    """Everything ``build_topology`` reads: equal keys build equal infrastructure."""
    level = DEFAULT_EXTENDER_RSSI_DBM if rssi_ap_e_dbm is None else rssi_ap_e_dbm
    return (spec.area is AreaKind.HOME_RECT, spec.n_extenders, spec.channel_plan, level)


def build_topology(
    spec: ScenarioSpec,
    rssi_ap_e_dbm: Optional[float] = None,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> Topology:
    """Infrastructure part of a scenario (stations are added per deployment).

    Extender ``i + 1`` sits at spot ``i`` of its family, spaced by the
    distance where its 5 GHz uplink lands on the target level: on the axes
    around the AP for a circle, all hanging off the AP; in a chain towards
    the far wall for the home flat, each off the one before.
    """
    home, n_ext, plan, level = topology_key(spec, rssi_ap_e_dbm)
    if not (-90.0 <= level <= -50.0):
        raise ValueError("extender placement level must lie in [-90, -50] dBm")
    d = extender_distance_m(level, p, band_mhz)
    if home:
        ap = HOME_AP_POS
        spots = [(HOME_AP_POS[0] + d * (i + 1), HOME_AP_POS[1]) for i in range(2)]
        parents = [0, 1]  # a chain: E1 -> AP, E2 -> E1
        multi = [6, 11]
    else:
        ap = (0.0, 0.0)
        spots = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)]
        parents = [0, 0, 0, 0]
        multi = [6, 6, 11, 11]  # opposite pairs share a channel: +x/-x then +y/-y
    chans = multi if plan == "multi" else [1] * n_ext
    nodes = [Node(0, NodeKind.AP, ap, _serving_radios(1))]
    nodes += [Node(i + 1, NodeKind.EXTENDER, spots[i], _serving_radios(chans[i]))
              for i in range(n_ext)]
    parent_of = {i + 1: parents[i] for i in range(n_ext)}
    return Topology(nodes=make_node_map(nodes), backhaul_parent=parent_of)


def draw_key(spec: ScenarioSpec) -> tuple:
    """Everything ``draw_slice`` reads besides the deployment indices, the
    propagation and the band table: specs with equal keys draw the same
    stations."""
    return (spec.seed, spec.n_sta, spec.area, spec.fixed_positions)


# --- slice draws: the Generator's stream in array arithmetic -----------------
#
# Deployment i's stream is that of PCG64 seeded by SeedSequence([seed, i]),
# as numpy's Generator makes it.  draw_slice computes it for a run of
# indices at once, in uint32 and uint64 arrays, whose arithmetic wraps
# silently, as the C code's does.

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# outputs a lane makes for its permutation before it needs more: ten
# stations use up their 32 draws in 1.5e-7 of deployments (the exact odds of
# the masked rejections), twelve in 2.8e-6
_PERM_OUTPUTS = 16
# lanes drawn at once, which bounds the (lanes, outputs) temporaries
_LANES = 256


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant before each of its first ``count`` hash
    calls, and after the last, as a uint32 column."""
    return np.array([init * pow(mult, c, 1 << 32) & _M32 for c in range(count + 1)],
                    dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, consts: np.ndarray, c: int, rows: int) -> np.ndarray:
    """SeedSequence's hash of ``value`` as hash calls ``c`` to ``c + rows - 1``
    make it: one row per call."""
    value = (value ^ consts[c : c + rows]) * consts[c + 1 : c + rows + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for each column
    of ``entropy``, its words ``(n_words, lanes)`` uint32: ``(8, lanes)``
    uint32, the low half of each state word first."""
    extra = max(0, len(entropy) - 4)
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * extra)
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hash(pool, consts, 0, 4)
    # each pool word mixed into the other three, then each further word into all four
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], consts, 4 + 3 * src, 3))
    for e in range(extra):
        pool = _mix(pool, _hash(entropy[4 + e], consts, 16 + 4 * e, 4))
    return _hash(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 8), 0, 8)


@lru_cache(maxsize=16)
def _jumps(first: int, count: int) -> tuple:
    """``A_t`` and ``C_t`` for outputs ``t = first .. first + count - 1``: a
    PCG64 seeded with state ``S`` and increment ``inc`` holds ``A_t * S +
    C_t * inc`` (mod 2**128) when it makes output ``t``.  As uint64 arrays:
    each one's high limb, and its low limb whole and cut into 32-bit halves."""
    mod, a, c = 1 << 128, [], []
    power, total = 1, 1
    # seeding steps once from inc and once from S + inc, so t = 0 holds
    # M * S + (1 + M) * inc, and each output steps on: A_t = M**(t + 1) and
    # C_t = 1 + M + ... + M**(t + 1)
    for t in range(first + count):
        power = power * _PCG_MULT % mod
        total = (total + power) % mod
        if t >= first:
            a.append(power)
            c.append(total)
    cuts = ((64, (1 << 64) - 1), (0, (1 << 64) - 1), (0, _M32), (32, _M32))
    return tuple(np.array([v >> shift & mask for v in values], dtype=np.uint64)
                 for values in (a, c) for shift, mask in cuts)


def _outputs(state: tuple, first: int, count: int) -> np.ndarray:
    """PCG64 outputs ``first .. first + count - 1`` (1 is the first that a
    fresh generator gives) of each lane, ``(lanes, count)`` uint64, from the
    lane's seeded S and inc, cut as ``_jumps`` cuts A and C, ``(lanes, 1)``."""
    a_hi, a_lo, a0, a1, c_hi, c_lo, c0, c1 = _jumps(first, count)
    s_hi, s_lo, s0, s1, i_hi, i_lo, i0, i1 = state
    # A * S + C * inc mod 2**128 in uint64 limbs: the low limbs' products
    # summed in 32-bit columns, where nothing overflows, and the rest wrapping
    p00, p01, p10 = a0 * s0, a0 * s1, a1 * s0
    q00, q01, q10 = c0 * i0, c0 * i1, c1 * i0
    col0 = (p00 & _M32) + (q00 & _M32)
    col1 = ((p00 >> 32) + (q00 >> 32) + (p01 & _M32) + (p10 & _M32) + (q01 & _M32)
            + (q10 & _M32) + (col0 >> 32))
    lo = (col1 << 32) | (col0 & _M32)
    hi = ((col1 >> 32) + (p01 >> 32) + (p10 >> 32) + (q01 >> 32) + (q10 >> 32) + a1 * s1
          + c1 * i1 + a_lo * s_hi + a_hi * s_lo + c_lo * i_hi + c_hi * i_lo)
    # XSL-RR: the halves xor'ed, rotated right by the state's top six bits
    value, rot = hi ^ lo, hi >> 58
    return (value >> rot) | (value << ((64 - rot) & 63))


def _words32(outputs: np.ndarray) -> np.ndarray:
    """Outputs as the Generator hands out 32-bit draws: low half first."""
    halves = np.stack([outputs & _M32, outputs >> 32], axis=2)
    return halves.reshape(len(outputs), -1).astype(np.uint32)


def _permutations(state: tuple, first: int, n: int, words: np.ndarray) -> np.ndarray:
    """``Generator.permutation(n)`` of each lane, whose 32-bit draws are
    ``words``, from PCG64 output ``first`` on: Fisher-Yates from the last
    slot down, slot ``i`` swapped with ``random_interval(i)``, which masks a
    draw to the bits of ``i`` and draws again while it exceeds ``i``."""
    lanes = len(words)
    perm = np.tile(np.arange(n), (lanes, 1))
    rows = np.arange(lanes)
    at = np.full(lanes, -1)  # each lane's last draw read
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if mask == i:  # every draw passes
                nxt = at + 1
                if nxt.max() < words.shape[1]:
                    break
            else:
                ok = (words & mask) <= i
                ok &= np.arange(words.shape[1]) > at[:, None]
                nxt = ok.argmax(axis=1)
                if ok[rows, nxt].all():
                    break
            # a lane has used up its draws: extend every lane's stream
            more = _outputs(state, first + words.shape[1] // 2, _PERM_OUTPUTS)
            words = np.concatenate([words, _words32(more)], axis=1)
        at = nxt
        j = words[rows, at] & mask
        slot = perm[:, i].copy()
        perm[:, i] = perm[rows, j]
        perm[rows, j] = slot
    return perm


def _draw_lanes(spec: ScenarioSpec, seed_words: list[int], lo: int, hi: int,
                p: PropagationParams, band_mhz: Mapping[Band, float]) -> tuple:
    """``draw_slice`` of indices ``lo`` to ``hi - 1``, which all take the
    same number of entropy words."""
    index = lo + np.arange(hi - lo, dtype=np.uint64)
    entropy = np.zeros((len(seed_words) + 1 + (lo > _M32), hi - lo), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = index & _M32
    entropy[len(seed_words) + 1 :] = index >> 32
    w = _seed_state(entropy).astype(np.uint64)
    # PCG64 seeds with S = (word 0 << 64) | word 1 and inc = (((word 2 << 64)
    # | word 3) << 1) | 1, each state word its low 32-bit word first
    s_hi, s_lo, seq_hi, seq_lo = w[0::2] | (w[1::2] << 32)
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    state = tuple(x[:, None] for x in (s_hi, s_lo, w[2], w[3], inc_hi, inc_lo,
                                         inc_lo & _M32, inc_lo >> 32))
    n = spec.n_sta
    drawn = 0 if spec.fixed_positions is not None else 2 * n
    outputs = _outputs(state, 1, drawn + _PERM_OUTPUTS)
    perm = _permutations(state, 1 + drawn, n, _words32(outputs[:, drawn:]))
    if not drawn:
        fixed = np.array(spec.fixed_positions, dtype=float).reshape(-1, 2)
        return np.broadcast_to(fixed, (hi - lo,) + fixed.shape), perm
    # uniform(0, high): high * ((x >> 11) * 2**-53), for n outputs and n more
    u = (outputs[:, :drawn] >> 11).astype(np.float64) * 2.0 ** -53
    if spec.area is AreaKind.HOME_RECT:
        xs, ys = HOME_WIDTH_M * u[:, :n], HOME_HEIGHT_M * u[:, n:]
    else:
        r = circle_radius_m(spec.area, p, band_mhz) * u[:, :n]
        theta = (2.0 * np.pi) * u[:, n:]
        xs, ys = r * np.cos(theta), r * np.sin(theta)
    return np.stack([xs, ys], axis=2), perm


def draw_slice(
    spec: ScenarioSpec,
    lo: int,
    hi: int,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> tuple[np.ndarray, np.ndarray]:
    """Deployments ``lo`` to ``hi - 1`` at once: station positions ``(D, n,
    2)`` and permutations ``(D, n_sta)``.

    Each deployment's permutation is drawn from its substream right after its
    positions, so capability membership is identical for every mechanism and
    nested across growing capable shares."""
    if not 0 <= lo < hi <= 1 << 64:
        raise ValueError("a slice holds deployments lo to hi - 1, with 0 <= lo < hi <= 2**64")
    positions, perms = [], []
    # the seed as SeedSequence reads an int: 32-bit words, low first
    seed_words = [spec.seed >> s & _M32 for s in range(0, max(1, spec.seed.bit_length()), 32)]
    for start in range(lo, hi, _LANES):
        stop = min(start + _LANES, hi)
        # indices from 2**32 on take two entropy words
        cut = min(max(start, 1 << 32), stop)
        for a, b in ((start, cut), (cut, stop)):
            if a < b:
                pos, perm = _draw_lanes(spec, seed_words, a, b, p, band_mhz)
                positions.append(pos)
                perms.append(perm)
    return np.concatenate(positions), np.concatenate(perms)


def deployment_draw(
    spec: ScenarioSpec,
    deployment_index: int,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> tuple[list[Position], np.ndarray]:
    """Station positions, a list of ``(x, y)`` float tuples, and the
    capability permutation of one deployment: ``draw_slice`` of it alone."""
    if not 0 <= deployment_index < 1 << 64:
        raise ValueError(f"deployment index {deployment_index} is outside [0, 2**64)")
    positions, perms = draw_slice(spec, deployment_index, deployment_index + 1, p, band_mhz)
    return list(map(tuple, positions[0].tolist())), perms[0]


def capable_set_for(spec: ScenarioSpec, perm: np.ndarray, beta_pct: float) -> frozenset[int]:
    ids = [STA_ID_BASE + i for i in range(spec.n_sta)]
    n = capable_count(beta_pct, spec.n_sta)
    return frozenset(ids[i] for i in perm[:n])


def add_stations(
    base: Topology,
    positions: Sequence[Position],
    capable: frozenset[int] = frozenset(),
) -> Topology:
    """``base`` with a station on ``STATION_RADIO`` at each position."""
    nodes = dict(base.nodes)
    for i, pos in enumerate(positions):
        sid = STA_ID_BASE + i
        nodes[sid] = Node(
            sid,
            NodeKind.STA,
            (float(pos[0]), float(pos[1])),
            (STATION_RADIO,),
            supports_11kv=sid in capable,
        )
    return replace(base, nodes=nodes)


# --- campaign grids ---------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a campaign grid: scenario, policy, demand, interference."""

    test_id: str
    scenario: ScenarioSpec
    selection: SelectionConfig
    traffic: TrafficProfile
    external: tuple[ExternalLoad, ...] = ()
    rssi_ap_e_dbm: Optional[float] = None

    @property
    def b_t_bps(self) -> float:
        return self.traffic.total_load_bps

    @property
    def b_ext_bps(self) -> float:
        return sum(x.load_bps for x in self.external)


TEST_IDS = {
    "1.1": "circle, extender placement sweep -50..-90 dBm, both mechanisms",
    "1.2": "circle 1.2x reach, association rates, 0/2/4 extenders",
    "1.3": "circle, rising demand, operational ranges, 0/2/4 extenders",
    "2.1": "home, rising demand, 0/1/2 chained extenders, both channel plans",
    "2.2": "home, access/backhaul weight sweep",
    "2.3": "home, capable-share sweep",
    "2.4": "home, neighbour interference on the extender channel, one deployment",
}

# the interferer transmits at a legacy rate, so its airtime share is large
# enough to saturate the shared channel inside the swept B_EXT window
EXTERNAL_PHY_RATE_BPS = 6e6

# every grid draws this many stations
_N_STA = 10


def fixed_home_positions() -> tuple[Position, ...]:
    """Ten stations for the one-deployment interference study.

    Five sit clearly on the AP side of the flat and five clearly on the
    extender side: x uniform in [2, 13) m, then in [19, 43) m, and y in
    [0.5, 9.5) m, drawn once by numpy's ``Generator`` seeded with
    ``SeedSequence([FIXED_DEPLOYMENT_SEED])`` and written down here.
    """
    return (
        (9.109470469807022, 1.8982192332891215),
        (11.765983457680427, 5.742147399538415),
        (3.8464482544567025, 8.231279273999242),
        (6.207633904266965, 6.4276341996157),
        (7.16477707717521, 6.330676475791738),
        (34.711391563818935, 4.739254610295635),
        (37.04571746988761, 3.9009402780184264),
        (39.49328848167064, 1.0745707415726193),
        (41.921802174390294, 7.413568165094441),
        (26.367112480830446, 4.786234553869332),
    )


def _grid(
    test_id: str,
    seed: int,
    area: AreaKind,
    k: int,
    curves: Sequence[tuple[int, str, SelectionConfig]],
    per_sta: Sequence[float] = (2.4e6,),
    levels: Sequence[Optional[float]] = (None,),
    b_ext: Sequence[float] = (0.0,),
    fixed_stations: bool = False,
) -> list[SweepPoint]:
    """One campaign test: each curve (extenders, channel plan, selection)
    swept over the same steps, extender level x per-station demand x
    neighbour load on the home extender's channel; a curve without extenders
    has no level to sweep.  ``fixed_stations`` places ``fixed_home_positions``."""
    fixed_positions = fixed_home_positions() if fixed_stations else None
    channel = ChannelId(Band.GHZ_2_4, 6)
    loads = [(ExternalLoad(channel, b, EXTERNAL_PHY_RATE_BPS),) if b > 0 else () for b in b_ext]
    demand = [(TrafficProfile.for_stations(b, _N_STA), load) for b in per_sta for load in loads]
    steps = [(level, traffic, load) for level in levels for traffic, load in demand]
    unplaced = [(None, traffic, load) for traffic, load in demand]
    points = []
    for n_ext, plan, selection in curves:
        spec = ScenarioSpec(area, _N_STA, n_extenders=n_ext, channel_plan=plan, k=k, seed=seed,
                            fixed_positions=fixed_positions)
        points += [SweepPoint(test_id, spec, selection, traffic, load, level)
                   for level, traffic, load in (steps if n_ext else unplaced)]
    return points


_PLANS = ("multi", "single")
_RSSI = SelectionConfig(mechanism=Mechanism.RSSI_BASED)


def _la(alpha: float = 0.5, beta_pct: float = 100.0) -> SelectionConfig:
    return SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=alpha, beta_pct=beta_pct)


def _ramp(stop_mbps: float) -> tuple[float, ...]:
    """Per-station demand as the total rises from a low anchor in 0.6 Mbps
    steps up to ``stop_mbps``."""
    totals = [0.12e6] + [0.6e6 * j for j in range(1, int(round(stop_mbps / 0.6)) + 1)]
    return tuple(b_t / _N_STA for b_t in totals)


# the curves of tests 1.2 and 1.3: stock with 0, 2 and 4 extenders, then load-aware
_CIRCLE_CURVES = [(0, "multi", _RSSI), (2, "multi", _RSSI), (4, "multi", _RSSI),
                  (2, "multi", _la()), (4, "multi", _la())]

# each test's arguments to ``_grid``
_GRIDS = {
    "1.1": dict(
        seed=101, area=AreaKind.CIRCLE_DMAX, k=1000,
        curves=[(0, "multi", _RSSI)] + [(4, plan, s) for plan in _PLANS for s in (_RSSI, _la())],
        levels=[-50.0 - step for step in range(41)],  # -50 .. -90 dBm
    ),
    "1.2": dict(seed=102, area=AreaKind.CIRCLE_1P2_DMAX, k=10000, curves=_CIRCLE_CURVES),
    "1.3": dict(seed=103, area=AreaKind.CIRCLE_DMAX, k=1000, curves=_CIRCLE_CURVES,
                per_sta=_ramp(36.0)),
    "2.1": dict(
        seed=201, area=AreaKind.HOME_RECT, k=1000, per_sta=_ramp(60.0),
        curves=[(0, "multi", _RSSI)] + [(n_ext, plan, s) for plan in _PLANS
                                        for n_ext in (1, 2) for s in (_RSSI, _la())],
    ),
    "2.2": dict(
        seed=202, area=AreaKind.HOME_RECT, k=1000, per_sta=(1.8e6, 3.0e6, 4.2e6, 5.4e6),
        curves=[(2, plan, _la(alpha=a)) for plan in _PLANS for a in (0.0, 0.25, 0.5, 0.75, 1.0)],
    ),
    "2.3": dict(
        seed=203, area=AreaKind.HOME_RECT, k=1000, per_sta=(1.8e6, 3.0e6, 4.2e6, 5.4e6),
        curves=[(2, plan, _la(beta_pct=b)) for plan in _PLANS
                for b in (0.0, 25.0, 50.0, 75.0, 100.0)],
    ),
    "2.4": dict(
        seed=204, area=AreaKind.HOME_RECT, k=1, per_sta=(4.32e6,),
        b_ext=[0.5e6 * j for j in range(25)],  # 0 .. 12 Mbps
        curves=[(0, "multi", _RSSI)] + [(1, "multi", s)
                                        for s in (_RSSI, _la(), _la(0.75), _la(1.0))],
        fixed_stations=True,
    ),
}


@lru_cache(maxsize=None)
def _grid_points(test_id: str) -> tuple[SweepPoint, ...]:
    return tuple(_grid(test_id, **_GRIDS[test_id]))


def build_test(test_id: str) -> list[SweepPoint]:
    """The full sweep grid of one campaign test: a new list each call, of
    points built once per process (they are frozen)."""
    if test_id not in _GRIDS:
        raise ValueError(f"unknown test id {test_id!r}; known: {', '.join(sorted(_GRIDS))}")
    return list(_grid_points(test_id))


# --- measured-testbed fixture ----------------------------------------------

# signal strengths measured at seven stations from the AP and the extender
TESTBED_RSSI = {
    1: (-43.0, -66.0),
    2: (-31.0, -69.0),
    3: (-38.0, -67.0),
    4: (-59.0, -41.0),
    5: (-65.0, -35.0),
    6: (-41.0, -51.0),
    7: (-46.0, -52.0),
}
TESTBED1_STAS = (1, 2, 3, 4, 5)
TESTBED2_STAS = (1, 2, 3, 6, 7)
TESTBED_BACKHAUL_RSSI = -70.0


def _sta_node_id(sta_no: int) -> int:
    return STA_ID_BASE + sta_no - 1


@dataclass(frozen=True)
class BenchFixture:
    """Measured RSSIs plus the associations observed on the real testbeds.

    ``expected_associations`` is keyed by (case label, total demand in Mbps);
    the RSSI-based cases do not depend on demand and use None.
    """

    rssi_matrix: dict[tuple[int, int], float]
    expected_associations: dict[tuple[str, Optional[float]], dict[int, int]]


def bench_fixture() -> BenchFixture:
    matrix: dict[tuple[int, int], float] = {}
    for sta_no, (rssi_ap, rssi_ext) in TESTBED_RSSI.items():
        sid = _sta_node_id(sta_no)
        matrix[(sid, 0)] = rssi_ap
        matrix[(sid, 1)] = rssi_ext

    def assoc(stas: Sequence[int], on_ext: Sequence[int]) -> dict[int, int]:
        return {
            _sta_node_id(s): (1 if s in on_ext else 0) for s in stas
        }

    expected: dict[tuple[str, Optional[float]], dict[int, int]] = {
        ("testbed1_only_ap_rssi", None): assoc(TESTBED1_STAS, ()),
        ("testbed1_rssi", None): assoc(TESTBED1_STAS, (4, 5)),
        ("testbed2_rssi", None): assoc(TESTBED2_STAS, ()),
        ("testbed2_load_aware", 5.0): assoc(TESTBED2_STAS, (7,)),
        ("testbed2_load_aware", 37.5): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 50.0): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 75.0): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 100.0): assoc(TESTBED2_STAS, (2,)),
    }
    return BenchFixture(rssi_matrix=matrix, expected_associations=expected)


def fixture_topology(
    stas: Sequence[int] = TESTBED2_STAS,
    with_extender: bool = True,
    capable: bool = True,
) -> tuple[Topology, dict[tuple[int, int, Band], float]]:
    """Topology plus link overrides realising the measured matrix.

    Wall attenuation in the real flat makes the matrix impossible to embed in
    open space, so every access link and the backhaul link carry explicit
    RSSI overrides; positions are only placeholders.
    """
    nodes = [Node(0, NodeKind.AP, (0.0, 0.0), _serving_radios(1))]
    parents: dict[int, int] = {}
    overrides: dict[tuple[int, int, Band], float] = {}
    if with_extender:
        nodes.append(Node(1, NodeKind.EXTENDER, (10.0, 0.0), _serving_radios(6)))
        parents[1] = 0
        overrides[(1, 0, Band.GHZ_5)] = TESTBED_BACKHAUL_RSSI
    for sta_no in stas:
        sid = _sta_node_id(sta_no)
        nodes.append(
            Node(sid, NodeKind.STA, (0.0, float(sta_no)), (_access_radio(1),),
                 supports_11kv=capable)
        )
        rssi_ap, rssi_ext = TESTBED_RSSI[sta_no]
        overrides[(sid, 0, Band.GHZ_2_4)] = rssi_ap
        if with_extender:
            overrides[(sid, 1, Band.GHZ_2_4)] = rssi_ext
    topo = Topology(nodes=make_node_map(nodes), backhaul_parent=parents)
    return topo, overrides
