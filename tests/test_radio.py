"""Propagation model and MCS lookup checks against hand-derived constants."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wlansteer.model import Band, ChannelId
from wlansteer.radio import (
    DEFAULT_MCS_2G4,
    DEFAULT_MCS_5G,
    DEFAULT_PROPAGATION,
    PropagationParams,
    RadioConfig,
    distance,
    max_range_m,
    mcs_for_rssi,
    path_loss_db,
    rssi_column,
    rssi_dbm,
)

P = DEFAULT_PROPAGATION

R24 = RadioConfig(band=Band.GHZ_2_4, channel=ChannelId(Band.GHZ_2_4, 1))
R5 = RadioConfig(band=Band.GHZ_5, channel=ChannelId(Band.GHZ_5, 36))

# 20*log10(2400) + 31*log10(d) - 28, evaluated with a separate calculator
PL_2400_10M = 70.60422483423211
PL_2400_1M = 39.60422483423211


def test_path_loss_reference_values():
    assert path_loss_db(2400.0, 10.0, P) == pytest.approx(PL_2400_10M, abs=1e-9)
    assert path_loss_db(2400.0, 1.0, P) == pytest.approx(PL_2400_1M, abs=1e-9)


def test_path_loss_grows_31db_per_decade():
    d1 = path_loss_db(2400.0, 10.0, P)
    d2 = path_loss_db(2400.0, 100.0, P)
    assert d2 - d1 == pytest.approx(31.0, abs=1e-9)


def test_path_loss_short_distance_clamped_to_one_meter():
    assert path_loss_db(2400.0, 0.2, P) == path_loss_db(2400.0, 1.0, P)
    assert path_loss_db(5000.0, 0.0, P) == path_loss_db(5000.0, 1.0, P)


def test_rssi_at_reference_distances():
    assert rssi_dbm(R24, (0.0, 0.0), (10.0, 0.0), P, 2400.0) == \
        pytest.approx(-50.60422483423211, abs=1e-9)
    assert rssi_dbm(R24, (0.0, 0.0), (100.0, 0.0), P, 2400.0) == \
        pytest.approx(-81.60422483423213, abs=1e-9)


def test_max_range_reference_values():
    d24 = max_range_m(R24, -90.0, P, 2400.0)
    assert 186.0 <= d24 <= 187.0
    assert d24 == pytest.approx(186.5655517978639, abs=1e-6)

    d5 = max_range_m(R5, -70.0, P, 5000.0)
    assert 26.0 <= d5 <= 27.0
    assert d5 == pytest.approx(26.303851985165995, abs=1e-6)

    assert max_range_m(R5, -90.0, P, 5000.0) == pytest.approx(116.1931812388534, abs=1e-6)


def test_max_range_round_trips_through_rssi():
    for radio, sens, f in ((R24, -90.0, 2400.0), (R5, -70.0, 5000.0), (R5, -90.0, 5000.0)):
        d = max_range_m(radio, sens, P, f)
        got = rssi_dbm(radio, (0.0, 0.0), (d, 0.0), P, f)
        assert got == pytest.approx(sens, abs=1e-9)


@settings(derandomize=True)
@given(
    sens=st.floats(min_value=-95.0, max_value=-45.0),
    tx=st.floats(min_value=0.0, max_value=30.0),
    f=st.sampled_from([2400.0, 5000.0]),
)
def test_range_inversion_is_exact_inverse(sens, tx, f):
    radio = RadioConfig(band=Band.GHZ_2_4, channel=ChannelId(Band.GHZ_2_4, 1),
                        tx_power_dbm=tx)
    d = max_range_m(radio, sens, P, f)
    if d < P.min_distance_m:
        return
    assert rssi_dbm(radio, (0.0, 0.0), (d, 0.0), P, f) == pytest.approx(sens, abs=1e-8)


# non-default terms: a floor and an offset whose sum rounds apart from the
# terms added in another order, a steeper exponent and a wider clamp
STEEP = PropagationParams(distance_power_loss_coeff=35.7, floor_penetration_db=7.3,
                          constant_offset_db=-31.9, min_distance_m=2.5)


@pytest.mark.parametrize("p", [P, STEEP], ids=["default", "steep"])
@pytest.mark.parametrize("radio, f", [(R24, 2437.0), (R5, 5180.0)], ids=["2.4", "5"])
def test_rssi_column_is_rssi_dbm_bit_for_bit(p, radio, f):
    rng = random.Random(7)
    tx = (3.25, -1.5)
    points = [(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)) for _ in range(400)]
    # at the transmitter, inside the clamp, on it and just beyond it
    points += [tx, (tx[0] - 0.3, tx[1] + 0.4), (tx[0], tx[1] - p.min_distance_m),
               (tx[0] + p.min_distance_m * 1.000001, tx[1])]
    points += [(tx[0] + rng.uniform(-1.0, 1.0) * p.min_distance_m / 2, tx[1]) for _ in range(20)]
    want = [rssi_dbm(radio, tx, pt, p, f) for pt in points]
    got = rssi_column(tx, radio.tx_power_dbm, f, points, p)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_rssi_column_checks_the_frequency_once_per_column():
    for f in (0.0, 100000.0):
        with pytest.raises(ValueError, match="frequency out of range"):
            rssi_column((0.0, 0.0), 20.0, f, [], P)


def test_distance_is_euclidean():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_mcs_anchor_5ghz():
    assert mcs_for_rssi(DEFAULT_MCS_5G, -77.0, 2) == (1, 117000000.0)


def test_mcs_table_5ghz_reference_points():
    assert mcs_for_rssi(DEFAULT_MCS_5G, -70.0, 2) == (4, 351000000.0)
    assert mcs_for_rssi(DEFAULT_MCS_5G, -91.0, 2) is None
    # exact threshold boundary belongs to the entry it opens
    assert mcs_for_rssi(DEFAULT_MCS_5G, -90.0, 2)[0] == 0
    assert mcs_for_rssi(DEFAULT_MCS_5G, -79.0, 2)[0] == 1


def test_mcs_table_24ghz_reference_points():
    assert mcs_for_rssi(DEFAULT_MCS_2G4, -57.0, 2) == (7, 144400000.0)
    assert mcs_for_rssi(DEFAULT_MCS_2G4, -90.0, 2) == (0, 13000000.0)
    assert mcs_for_rssi(DEFAULT_MCS_2G4, -90.1, 2) is None


def test_single_stream_rates_are_half_of_two_stream():
    for table in (DEFAULT_MCS_2G4, DEFAULT_MCS_5G):
        for e in table.entries:
            assert e.rate_bps_1ss == pytest.approx(e.rate_bps_2ss / 2.0)
        mcs1, rate1 = mcs_for_rssi(table, -40.0, 1)
        mcs2, rate2 = mcs_for_rssi(table, -40.0, 2)
        assert mcs1 == mcs2
        assert rate1 == pytest.approx(rate2 / 2.0)


def test_mcs_tables_are_strictly_ordered():
    for table in (DEFAULT_MCS_2G4, DEFAULT_MCS_5G):
        th = [e.min_rssi_dbm for e in table.entries]
        rates = [e.rate_bps_2ss for e in table.entries]
        assert th == sorted(th)
        assert len(set(th)) == len(th)
        assert rates == sorted(rates)


@settings(derandomize=True)
@given(
    r1=st.floats(min_value=-95.0, max_value=-30.0),
    dr=st.floats(min_value=0.0, max_value=60.0),
)
def test_mcs_rate_monotone_in_rssi(r1, dr):
    lo = mcs_for_rssi(DEFAULT_MCS_5G, r1, 2)
    hi = mcs_for_rssi(DEFAULT_MCS_5G, r1 + dr, 2)
    if lo is None:
        return
    assert hi is not None
    assert hi[1] >= lo[1]


def test_5ghz_loses_more_than_24ghz_at_equal_distance():
    at = rssi_dbm(R5, (0.0, 0.0), (10.0, 0.0), P, 5000.0)
    # the 5 GHz band loses 20*log10(5000/2400) more than 2.4 GHz
    gap = rssi_dbm(R24, (0.0, 0.0), (10.0, 0.0), P, 2400.0) - at
    assert gap == pytest.approx(20.0 * math.log10(5000.0 / 2400.0), abs=1e-9)
