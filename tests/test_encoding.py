"""Banding and price-series encoding."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tea.encoding import Antigen, EncodingError, PricePoint, band, encode, price_changes


def reference_band(delta, width):
    """The banding formula the fast path in band replaces, errors included."""
    if not (math.isfinite(width) and width > 0):
        raise EncodingError(f"band width must be positive and finite, got {width}")
    if delta == 0:
        return 0.0
    try:
        steps = max(1, math.ceil(round(abs(delta) / width, 9)))
    except (OverflowError, ValueError):  # the quotient is infinite or nan
        raise EncodingError(f"price change {delta} has no band at width {width}") from None
    point = round(steps * width, 9)
    if point > sys.float_info.max:  # the grid point passes the largest float
        raise EncodingError(f"price change {delta} has no band at width {width}")
    return math.copysign(point, delta)


@st.composite
def deltas_near_grid(draw, width):
    """Any float, or an exact multiple of width or one of its neighbours."""
    any_float = st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=True)
    multiple = st.integers(-10**6, 10**6).map(lambda k: k * width)
    near = st.tuples(multiple, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda m: m[0] if m[1] is None else math.nextafter(m[0], m[1])
    )
    return draw(any_float | near)


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

    @pytest.mark.parametrize(
        "delta,width",
        [(math.inf, 1.0), (-math.inf, 0.5), (math.nan, 1.0), (1e308, 0.5)],
    )
    def test_rejects_delta_with_no_band(self, delta, width):
        # the last quotient overflows to inf though the delta is finite
        with pytest.raises(EncodingError, match="has no band"):
            band(delta, width)

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

    @given(st.data(), st.sampled_from([0.1, 0.3, 0.5, 1, 7]))
    @settings(max_examples=500)
    def test_equals_reference_formula(self, data, width):
        delta = data.draw(deltas_near_grid(width))
        out = band(delta, width)
        expected = reference_band(delta, width)
        assert out == expected and math.copysign(1, out) == math.copysign(1, expected)

    @given(
        delta=st.floats() | st.integers(-10**6, 10**6),
        width=st.floats() | st.integers(-2, 9) | st.sampled_from([0.1, 0.5, 1.0]),
    )
    @settings(max_examples=500)
    def test_equals_reference_formula_and_errors(self, delta, width):
        # any float or int on both sides: the same value, or the same error
        # and message.  A grid point past the largest float is an
        # EncodingError at float and int widths alike, on both sides.
        try:
            expected = reference_band(delta, width)
        except EncodingError as exc:
            with pytest.raises(type(exc)) as raised:
                band(delta, width)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        out = band(delta, width)
        assert out == expected and math.copysign(1, out) == math.copysign(1, expected)

    @pytest.mark.parametrize(
        "delta,width",
        [(1.5e308, 1e308), (-1.5e308, 1e308), (sys.float_info.max, 3.0), (sys.float_info.max, 3)],
    )
    def test_grid_point_past_the_largest_float_has_no_band(self, delta, width):
        with pytest.raises(EncodingError) as raised:
            band(delta, width)
        assert str(raised.value) == f"price change {delta} has no band at width {width}"

    def test_messages_name_the_width_as_given(self):
        # an int width, a bool one included, prints as given, whatever equal
        # width came before
        for width in (1.0, 1, True, 1.0, 2, 2.0):
            with pytest.raises(EncodingError, match=f"at width {width}$"):
                band(math.inf, width)
        for width in (0.0, 0, -0.0, 0):
            with pytest.raises(EncodingError, match=f"got {width}$"):
                band(1.0, width)

    def test_int_width_past_the_float_range_is_named(self):
        with pytest.raises(EncodingError) as raised:
            band(1.0, 10**400)
        assert str(raised.value) == f"band width must be positive and finite, got {10**400}"

    @pytest.mark.parametrize("width", [0.1, 0.3, 0.5, 1, 7])
    def test_equals_reference_formula_at_grid_edges(self, width):
        for k in range(-50, 51):
            base = k * width
            for delta in (
                base,
                base + 1e-12,
                base - 1e-12,
                base + 4e-10 * width,
                base - 4e-10 * width,
                base + 6e-10 * width,
                base - 6e-10 * width,
                math.nextafter(base, math.inf),
                math.nextafter(base, -math.inf),
            ):
                assert band(delta, width) == reference_band(delta, width), delta


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
