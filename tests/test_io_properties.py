"""Property tests of the text writer: one repr per distinct magnitude gives
the bytes of one repr per float, and the rows read back bit for bit."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import reference_rows  # noqa: E402
from qmarginal.io import _rows, _text_rows  # noqa: E402


def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# repr switches between positional and exponent form at 1e-4 and 1e16; the
# subnormals run from 5e-324 up to the smallest normal float
EDGES = [
    0.0,
    5e-324,
    1e-310,
    math.nextafter(2.2250738585072014e-308, 0.0),
    2.2250738585072014e-308,
    *_around(1e-4),
    *_around(1e16),
    1.7976931348623157e308,
]
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda x, minus: -x if minus else x, st.sampled_from(EDGES), st.booleans()),
    st.floats(min_value=-1e-307, max_value=1e-307),
)


@st.composite
def complex_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    parts = draw(st.lists(finite, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts, dtype=np.float64).view(complex).reshape(rows, cols)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(complex_matrices())
def test_rows_match_the_reference_and_read_back_bit_for_bit(values):
    rows = _text_rows(values)
    assert rows == reference_rows(values)
    count, width = values.shape
    back = _rows(rows, 1, count, width, "matrix.txt", "", "matrix")
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
