"""Tests for the vectorized ``.17g`` column formatter behind the CSV writer:
its bytes equal Python's ``format(v, ".17g")`` for every float, every value
it cannot certify takes the scalar path, and columns of CSV cells, each
dropping its unused words by itself, join into Python's rows."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from whichway import _floattext
from whichway._floattext import (BLOCK_ROWS, cells, column_cells, csv_rows,
                                 format_g17)


def text(values) -> bytes:
    return b"".join(csv_rows(block) for block in column_cells(
        np.asarray(values, dtype=float), "\n"))


def reference(values) -> bytes:
    return "".join(f"{v:.17g}\n" for v in values).encode("ascii")


def powers_and_neighbours() -> list[float]:
    powers = [10.0 ** k for k in range(-300, 301)]
    return [v for p in powers
            for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]


BOUNDARIES = [
    1e16, 1e17, math.nextafter(1e16, 0.0), math.nextafter(1e17, 0.0),
    # fixed notation down to 1e-4, scientific below
    1e-4, 1e-5, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
    9.9999999999999995e-05, 0.00012345678901234567, -0.0001,
]

# Exact decimal ties at the 17th digit, which round half to even.
TIES = [9 * 2.0 ** -23, 2.0 ** -25, 3 * 2.0 ** -25, 211 * 2.0 ** -21]


@given(st.floats())
def test_matches_format(value):
    assert text([value]) == reference([value])


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_matches_format_in_a_column(values):
    assert text(values) == reference(values)


@pytest.mark.parametrize("values", [
    powers_and_neighbours(), BOUNDARIES, TIES,
    [-v for v in powers_and_neighbours()],
], ids=["powers", "boundaries", "ties", "negative_powers"])
def test_fixed_values(values):
    assert text(values) == reference(values)


def test_tie_rounds_half_to_even():
    assert text([9 * 2.0 ** -23]) == b"1.0728836059570312e-06\n"


def test_column_longer_than_a_block():
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 1, 2 * BLOCK_ROWS + 37) \
        * 10.0 ** rng.uniform(-12, 12, 2 * BLOCK_ROWS + 37)
    assert text(values) == reference(values.tolist())


def test_csv_rows_joins_columns():
    x = cells(format_g17(np.array([-1.5e-3, 2.0])), ",")
    y = cells(format_g17(np.array([0.25, 1e-300])), "\n")
    assert csv_rows(x, y) == b"-0.0015,0.25\n2,1e-300\n"


# Values on both sides of 10 (words 1 and 2 hold digits before the point
# after the first), signed zeros, subnormals and values the scalar path
# formats, besides any float.
CELL_VALUES = st.one_of(st.floats(), st.sampled_from([
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.999999999999998, 10.0,
    -10.000000000000002, 123456789.125, 1e16, -1e17, 1e300, math.inf,
    -math.inf, math.nan, 9 * 2.0 ** -23]))


@given(st.lists(st.tuples(CELL_VALUES, CELL_VALUES), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=8))
def test_independent_cell_columns_give_python_rows(pairs, block):
    # Each block of each column drops its unused words by itself, so one
    # column may keep six words where the other keeps four.
    x, y = (np.array(column, dtype=float) for column in zip(*pairs))
    rows = b"".join(
        csv_rows(cells(format_g17(x[start:start + block]), ","),
                 cells(format_g17(y[start:start + block]), "\n"))
        for start in range(0, x.size, block))
    assert rows == "".join(f"{a:.17g},{b:.17g}\n"
                           for a, b in pairs).encode("ascii")


def test_column_cells_drop_unused_words_per_block():
    values = np.concatenate((np.full(BLOCK_ROWS, 0.5), [12.5]))
    first, second = column_cells(values, ",")
    assert first.shape == (BLOCK_ROWS, 4) and second.shape == (1, 6)
    assert csv_rows(second) == b"12.5,"


@pytest.fixture
def scalar_calls(monkeypatch):
    """The values ``_floattext`` formats with Python, in call order."""
    calls = []

    def spy(value):
        calls.append(value)
        return format(value, ".17g").encode("ascii")

    monkeypatch.setattr(_floattext, "_fallback", spy)
    return calls


def mirrored(upper, n: int, odd: bool) -> np.ndarray:
    """A column of n values whose rows i >= n // 2 are ``upper`` and whose
    rows i < n // 2 are their mirror, negated with the sign bit flipped
    when ``odd``."""
    upper = np.asarray(upper, dtype=float)
    lower = upper[::-1][:n // 2]
    return np.concatenate((-lower if odd else lower, upper))


# Rows Python formats (signed zeros, subnormals, |v| above the tables, inf
# and nan), values of 10 and more (6-word cells) and certified ones below.
MIRROR_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.1e272,
                 -math.inf, math.nan, 12.5, -123456.75, 0.3, -2.5e-7, 0.25]


class TestMirroredColumn:
    """A column that mirrors itself bit for bit, evenly or oddly, is
    formatted from its upper half, with the bytes of formatting each
    value; any other column is formatted whole."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 2 * BLOCK_ROWS,
                                   2 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 6])
    @pytest.mark.parametrize("kind", ["even", "odd", "unmirrored"])
    def test_formats_the_upper_half(self, spy_on_formatting, n, kind):
        rng = np.random.default_rng(n)
        # NaN has no signed text, so an odd column with one is formatted
        # whole (test_odd_column_with_nan_is_formatted_whole).
        drawn = [v for v in MIRROR_VALUES
                 if kind != "odd" or not math.isnan(v)]
        upper = rng.choice(drawn, n - n // 2)
        upper[n % 2] = 0.3
        values = mirrored(upper, n, kind != "even")
        if kind == "unmirrored":
            # one ulp off in the lower row next to the upper half
            values[n // 2 - 1] = np.nextafter(values[n // 2 - 1], math.inf)
        sizes = spy_on_formatting()
        assert text(values) == reference(values.tolist())
        assert sum(sizes) == (n if kind == "unmirrored" else n - n // 2)

    @pytest.mark.parametrize("values", [
        # "1.1e+272" fits word 0, "-1.1e+272" also takes word 1.
        [-1.1e272, 0.25, 1.1e272], [-1e300, 0.25, 1e300],
        [0.0, -0.0], [-0.0, 0.0], [math.inf, -math.inf], [-5e-324, 5e-324],
        [math.nan, -math.nan], [-12.5, 12.5], [-0.5, 0.0, 0.5],
    ])
    def test_odd_python_rows(self, values):
        column = np.array(values)
        assert column.view(np.uint64)[0] ^ column.view(np.uint64)[-1] \
            == 1 << 63
        assert text(column) == reference(values)

    def test_odd_python_rows_take_one_python_pass(self, scalar_calls):
        upper = [0.25, 0.0, -0.0, math.inf, -5e-324, 1e300, -1e300, 12.5]
        values = mirrored(upper, 2 * len(upper), odd=True)
        assert text(values) == reference(values.tolist())
        # Python formats the upper half's six, signs kept, and no mirror.
        assert list(map(repr, scalar_calls)) == list(map(repr, upper[1:7]))

    @pytest.mark.parametrize("n", [2, 9, 2 * BLOCK_ROWS + 1])
    def test_odd_column_with_nan_is_formatted_whole(self, spy_on_formatting,
                                                     n):
        upper = np.resize([math.nan, 0.3, -math.inf, 12.5], n - n // 2)
        values = mirrored(upper, n, odd=True)
        assert values.view(np.uint64)[0] ^ values.view(np.uint64)[-1] \
            == 1 << 63
        sizes = spy_on_formatting()
        assert text(values) == reference(values.tolist())
        assert sum(sizes) == n

    @given(st.lists(CELL_VALUES, min_size=1, max_size=40),
           st.booleans(), st.booleans())
    def test_any_mirrored_column_gives_python_rows(self, upper, odd, even_n):
        values = mirrored(upper, 2 * len(upper) - (not even_n), odd)
        assert text(values) == reference(values.tolist())


def misestimated_exponents() -> list[float]:
    """Values just below 10^k whose rounded log10 is k."""
    below = [math.nextafter(10.0 ** k, 0.0) for k in range(1, 23)]
    return [v for v in below
            if math.floor(np.log10(v)) != int(f"{v:.16e}".split("e")[1])]


class TestFallback:
    """Each value the fast path cannot certify goes to ``format``."""

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
        math.inf, -math.inf, math.nan, 9 * 2.0 ** -23,
    ], ids=["zero", "negative_zero", "subnormal", "smallest_normal",
            "below_range", "above_range", "inf", "negative_inf", "nan",
            "exact_tie"])
    def test_reason_takes_scalar_path(self, scalar_calls, value):
        assert text([0.1, value, 0.3]) == reference([0.1, value, 0.3])
        assert len(scalar_calls) == 1
        assert scalar_calls[0] == value or math.isnan(value)

    def test_misestimated_exponent_takes_scalar_path(self, scalar_calls):
        values = misestimated_exponents()
        assert values, "log10 rounds no value below a power of ten up"
        assert text(values) == reference(values)
        assert scalar_calls == values

    def test_certified_values_skip_scalar_path(self, scalar_calls):
        values = np.linspace(-1.3e-3, 2.9e-3, 5001)
        assert text(values) == reference(values.tolist())
        assert scalar_calls == []
