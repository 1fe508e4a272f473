"""The vectorized CSV formatter against its reference, repr per value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterrasim import csvtext
from volterrasim.processes import Ensemble, GridSpec

from support import ensemble_from_csv


def reference(values):
    return [",".join(map(repr, row)) for row in values.tolist()]


def formatted(values):
    return [row.decode() for row in csvtext.format_rows(values)]


def assert_like_repr(values):
    values = np.asarray(values, float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    got, want = formatted(values), reference(values)
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:3]


def neighbours(centres, k):
    """Every double within k ulps of each centre, centres included."""
    bits = np.asarray(centres, float).view(np.int64)
    return (bits[:, None] + np.arange(-k, k + 1)).view(np.float64).ravel()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=30))
def test_any_float(xs):
    assert_like_repr(np.array([xs]))


def test_random_bit_patterns():
    rng = np.random.default_rng(20241019)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    # repr is slow far from 1, so 49 in 50 patterns keep their sign and
    # mantissa bits but get an exponent from 2^-16 to 2^56: the positional
    # range and two binades either side
    exponent = rng.integers(1023 - 16, 1023 + 56, size=bits.size, dtype=np.uint64)
    keep = np.arange(bits.size) % 50 == 0
    bits = np.where(keep, bits, (bits & ~np.uint64(0x7FF << 52)) | (exponent << 52))
    assert_like_repr(bits.view(np.float64).reshape(1000, 1000))


def test_powers_and_their_neighbours():
    centres = np.concatenate([2.0 ** np.arange(-16, 56),
                              [float(f"1e{e}") for e in range(-6, 18)]])
    values = neighbours(centres, 1000)
    assert_like_repr(np.concatenate([values, -values]).reshape(-1, 2001))


def test_just_below_a_tenth_and_a_hundredth():
    # X = hi + lo with hi == 1e16 and lo < 0: below the scaled range
    assert_like_repr([np.nextafter(0.1, 0.0), np.nextafter(0.01, 0.0),
                      np.nextafter(0.1, 1.0), np.nextafter(0.01, 1.0)])


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_notation_edges(edge):
    values = neighbours([edge], 200)
    assert_like_repr(np.concatenate([values, -values]).reshape(2, -1))


def test_special_values():
    assert formatted(np.array([[0.0, -0.0, 5e-324, -5e-324,
                                1.7976931348623157e308, np.inf, -np.inf,
                                np.nan]])) == [
        "0.0,-0.0,5e-324,-5e-324,1.7976931348623157e+308,inf,-inf,nan"]


def test_short_decimals_and_integers():
    rng = np.random.default_rng(7)
    short = neighbours(np.round(rng.uniform(1e-3, 1e5, 20000), 3), 2)
    integers = np.concatenate([np.arange(-3000.0, 3000.0),
                               np.arange(-3000.0, 3000.0) + 0.5,
                               rng.integers(2 ** 53, 10 ** 16, 6000) * 1.0])
    assert_like_repr(short.reshape(-1, 5))
    assert_like_repr(integers.reshape(-1, 6))


def test_repr_inside_a_row():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((300, 40))
    values[::7, ::3] *= 1e-6  # below 1e-4: written by repr
    values[5, :] = 0.0
    values[:, -1] *= 1e-9  # ends every row
    assert_like_repr(values)


@pytest.mark.parametrize("shape", [(20000, 1), (3000, 7), (5, csvtext.CHUNK - 1),
                                   (3, csvtext.CHUNK + 3)])
def test_rows_across_chunks(shape):
    assert_like_repr(np.random.default_rng(5).standard_normal(shape))


def test_csv_reads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((201, 30)) * 10.0 ** rng.integers(-8, 12, (201, 30))
    values[100] = 0.0
    path = tmp_path / "block.csv"
    Ensemble(GridSpec(-1.0, 1.0, 201), values).to_csv(path)
    back = ensemble_from_csv(path)
    assert back.values.tobytes() == values.tobytes()


def test_vector_ensemble_is_refused(tmp_path):
    # values[i, n, p] has no CSV layout; it used to write list reprs
    ens = Ensemble(GridSpec(0.0, 1.0, 3), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="2-D"):
        ens.to_csv(tmp_path / "vector.csv")
