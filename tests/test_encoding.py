"""Banding and price-series encoding."""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import reference_band
from tea.encoding import Antigen, EncodingError, PricePoint, band, encode, finite, price_changes


@st.composite
def deltas_near_grid(draw, width):
    """Any float, or an exact multiple of width or one of its neighbours."""
    any_float = st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=True)
    multiple = st.integers(-10**6, 10**6).map(lambda k: k * width)
    near = st.tuples(multiple, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda m: m[0] if m[1] is None else math.nextafter(m[0], m[1])
    )
    return draw(any_float | near)


# nan, infinities, the largest floats and their negatives, subnormals and
# ints past the largest float: every value a price point can be given
any_price = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([1e308, -1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
    | st.integers(-(10**400), 10**400)
)


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

    @pytest.mark.parametrize(
        "delta,shown_as",
        [(10**400, "1" + "0" * 400), (-10**400, "-1" + "0" * 400), (10**5000, "an int of 16610 bits")],
        ids=["10**400", "-10**400", "10**5000"],
    )
    def test_int_past_the_largest_float_has_no_band(self, delta, shown_as):
        # the quotient overflows inside band's error handling, not before it,
        # and an int too long for a decimal string is named by its bit count
        with pytest.raises(EncodingError) as raised:
            band(delta, 0.5)
        assert str(raised.value) == f"price change {shown_as} has no band at width 0.5"

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
        delta=st.floats() | st.integers(-10**400, 10**400),
        width=st.floats() | st.integers(-2, 9) | st.sampled_from([0.1, 0.5, 1.0]),
    )
    @settings(max_examples=500)
    @example(delta=10**5000, width=0.5)  # past the int-to-str digit limit
    def test_equals_reference_formula_and_errors(self, delta, width):
        # any float or int on both sides: the same value, or the same error
        # and message.  A grid point past the largest float, and an int delta
        # past it, is an EncodingError at float and int widths alike.  The
        # reference raises a plain ValueError where band raises EncodingError.
        try:
            expected = reference_band(delta, width)
        except ValueError as exc:
            with pytest.raises(EncodingError) as raised:
                band(delta, width)
            assert type(raised.value) is EncodingError and str(raised.value) == str(exc)
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

    def test_int_width_past_the_string_limit_is_named_by_bits(self):
        # a decimal string of 5,001 digits is past the int-to-str limit
        with pytest.raises(EncodingError) as raised:
            band(1.0, 10**5000)
        assert str(raised.value) == "band width must be positive and finite, got an int of 16610 bits"

    @pytest.mark.parametrize("width", [1e-10, 4e-10, 1.5e-9])
    def test_width_off_the_nine_place_grid_is_named(self, width):
        # its grid points, rounded to 9 places, are not its multiples: 1e-10
        # banded 1.5e-10 to 0.0, and 4e-10 banded 6e-10 to 1e-09
        for delta in (0.0, 1.5 * width, 1.0):
            with pytest.raises(EncodingError) as raised:
                band(delta, width)
            assert str(raised.value) == (
                f"band width {width} is off the grid of 9 decimal places bands round to"
            )

    @pytest.mark.parametrize("width", [1e-9, 3e-9, 1e-6, 0.1, 0.25, 0.5, 1, 2])
    def test_width_on_the_nine_place_grid_bands_onto_its_multiples(self, width):
        for k in range(1, 100):
            assert band((k - 0.5) * width, width) == round(k * width, 9)

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

    @pytest.mark.parametrize("second_ts", [0.0, -1.0, math.nan])
    def test_rejects_non_increasing_timestamps(self, second_ts):
        with pytest.raises(EncodingError):
            price_changes([PricePoint(0, 10.0), PricePoint(second_ts, 11.0)])

    @pytest.mark.parametrize(
        "point,shown_as",
        [
            (PricePoint(math.inf, 11.0), "timestamp inf, close 11.0"),
            (PricePoint(1, 10**400), f"timestamp 1, close {10**400}"),
        ],
        ids=["infinite-timestamp", "close-10**400"],
    )
    def test_rejects_a_point_that_is_not_finite(self, point, shown_as):
        with pytest.raises(EncodingError) as raised:
            price_changes([PricePoint(0, 10.0), point])
        assert str(raised.value) == f"price point 1 ({shown_as}) is not finite"


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

    @settings(max_examples=300)
    @given(
        points=st.lists(st.tuples(any_price, any_price), min_size=2, max_size=8),
        width=st.sampled_from([0.1, 0.5, 1, 2]),
    )
    def test_returns_finite_values_or_raises_encoding_error(self, points, width):
        try:
            antigen = encode([PricePoint(t, c) for t, c in points], width)
        except EncodingError:
            return
        assert len(antigen) == len(points) - 1
        assert all(finite(v) for v in antigen)


class TestAntigen:
    def test_seq_normalised_to_tuple(self):
        assert Antigen([1.0, 2.0]).seq == (1.0, 2.0)

    def test_iterates_its_values(self):
        assert tuple(Antigen([1.0, 2.0])) == (1.0, 2.0)

    @pytest.mark.parametrize(
        "value,shown_as",
        [(10**400, str(10**400)), (10**5000, "an int of 16610 bits")],
        ids=["10**400", "10**5000"],
    )
    def test_rejects_an_int_past_the_largest_float(self, value, shown_as):
        with pytest.raises(EncodingError) as raised:
            Antigen((1.0, value), "x")
        assert str(raised.value) == f"antigen 'x' has a non-finite value {shown_as}"
