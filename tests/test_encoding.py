"""Banding and price-series encoding."""

import math

import pytest
from hypothesis import given, strategies as st

from tea.encoding import Antigen, EncodingError, PricePoint, band, encode, price_changes


class TestBand:
    @pytest.mark.parametrize(
        "delta,width,expected",
        [
            (0.4, 1.0, 1.0),
            (1.0, 1.0, 1.0),
            (1.1, 1.0, 2.0),
            (-0.3, 0.5, -0.5),
            (-0.5, 0.5, -0.5),
            (-0.6, 0.5, -1.0),
            (0.25, 0.5, 0.5),
            (2.0, 0.5, 2.0),
            (1.6, 0.5, 2.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.5, 0.0),
        ],
    )
    def test_rounds_outward(self, delta, width, expected):
        assert band(delta, width) == expected

    def test_rejects_nonpositive_width(self):
        with pytest.raises(EncodingError):
            band(1.0, 0.0)
        with pytest.raises(EncodingError):
            band(1.0, -0.5)
        for width in (math.nan, math.inf):
            with pytest.raises(EncodingError, match="positive and finite"):
                band(1.0, width)

    def test_tolerates_float_noise_in_quotient(self):
        # 0.3 / 0.1 is 2.9999... in floats; the quotient must not round up
        assert band(0.3, 0.1) == 0.3
        assert band(0.7, 0.1) == 0.7

    @given(
        delta=st.floats(-100, 100, allow_nan=False),
        width=st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]),
    )
    def test_properties(self, delta, width):
        out = band(delta, width)
        if delta == 0:
            assert out == 0.0
            return
        # sign preserved, magnitude never shrinks, lands on the grid
        assert math.copysign(1, out) == math.copysign(1, delta)
        assert abs(out) >= abs(delta) - 1e-9
        assert abs(out) - abs(delta) < width + 1e-9
        steps = abs(out) / width
        assert abs(steps - round(steps)) < 1e-6

    @given(
        delta=st.floats(-100, 100, allow_nan=False),
        width=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    def test_idempotent(self, delta, width):
        once = band(delta, width)
        assert band(once, width) == once


class TestPriceChanges:
    def test_deltas_in_order(self):
        series = [PricePoint(0, 10.0), PricePoint(1, 11.5), PricePoint(2, 11.0)]
        assert price_changes(series) == [1.5, -0.5]

    def test_needs_two_points(self):
        with pytest.raises(EncodingError):
            price_changes([PricePoint(0, 10.0)])

    @pytest.mark.parametrize("second_ts", [0.0, -1.0])
    def test_rejects_non_increasing_timestamps(self, second_ts):
        with pytest.raises(EncodingError):
            price_changes([PricePoint(0, 10.0), PricePoint(second_ts, 11.0)])


class TestEncode:
    def test_bands_each_delta(self):
        series = [
            PricePoint(0, 10.0),
            PricePoint(1, 10.4),
            PricePoint(2, 12.5),
            PricePoint(3, 12.5),
        ]
        antigen = encode(series, width=1.0, label="demo")
        assert antigen.seq == (1.0, 3.0, 0.0)
        assert antigen.label == "demo"

    def test_half_width(self):
        series = [PricePoint(0, 5.0), PricePoint(1, 5.2), PricePoint(2, 4.6)]
        assert encode(series, width=0.5).seq == (0.5, -1.0)


class TestAntigen:
    def test_seq_normalised_to_tuple(self):
        assert Antigen([1.0, 2.0]).seq == (1.0, 2.0)
