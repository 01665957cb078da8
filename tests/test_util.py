"""Tests for repro.util: errors, validation, rng, tables."""

import numpy as np
import pytest

from repro.util import (
    ReproError,
    ShapeError,
    check_index_array,
    check_permutation,
    as_float_array,
    as_index_array,
    make_rng,
    format_table,
)
from repro.util.errors import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    OrderingError,
    SimulationError,
)
from repro.util.rng import DEFAULT_SEED


class TestErrors:
    def test_hierarchy_all_derive_from_repro_error(self):
        for exc in (
            ShapeError,
            NotPositiveDefiniteError,
            SingularMatrixError,
            OrderingError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)

    def test_shape_error_is_value_error(self):
        assert issubclass(ShapeError, ValueError)

    def test_not_pd_error_carries_column(self):
        err = NotPositiveDefiniteError("pivot", column=7)
        assert err.column == 7

    def test_singular_error_carries_column(self):
        err = SingularMatrixError("zero pivot", column=3)
        assert err.column == 3

    def test_not_pd_default_column_none(self):
        assert NotPositiveDefiniteError("x").column is None


class TestValidation:
    def test_as_index_array_from_list(self):
        a = as_index_array([1, 2, 3])
        assert a.dtype == np.int64
        assert a.tolist() == [1, 2, 3]

    def test_as_index_array_rejects_fractional_floats(self):
        with pytest.raises(ShapeError):
            as_index_array(np.array([1.5, 2.0]))

    def test_as_index_array_accepts_integral_floats(self):
        a = as_index_array(np.array([1.0, 2.0]))
        assert a.tolist() == [1, 2]

    def test_as_float_array_rejects_nan(self):
        with pytest.raises(ShapeError):
            as_float_array([1.0, np.nan])

    def test_as_float_array_rejects_inf(self):
        with pytest.raises(ShapeError):
            as_float_array([np.inf])

    def test_as_float_array_empty_ok(self):
        assert as_float_array([]).size == 0

    @pytest.mark.parametrize(
        "a",
        [
            np.ones(3) * (1 + 2j),
            np.ones(3, dtype=np.complex64),
            [1.0, 2j],
            np.array([1.0, 2j], dtype=object),
        ],
        ids=["complex128", "complex64", "list", "object"],
    )
    def test_as_float_array_rejects_complex(self, a):
        # a cast would keep the real part alone and solve another system
        with pytest.raises(ShapeError, match="b"):
            as_float_array(a, "b")

    @pytest.mark.parametrize(
        "a", [np.array(["x", "y"]), [object()], [[1.0, 2.0], [3.0]]], ids=["str", "obj", "ragged"]
    )
    def test_as_float_array_uncastable_is_shape_error(self, a):
        with pytest.raises(ShapeError, match="cannot be converted"):
            as_float_array(a)

    def test_check_index_array_in_range(self):
        check_index_array(np.array([0, 4], dtype=np.int64), 5)

    def test_check_index_array_negative(self):
        with pytest.raises(ShapeError):
            check_index_array(np.array([-1], dtype=np.int64), 5)

    def test_check_index_array_too_large(self):
        with pytest.raises(ShapeError):
            check_index_array(np.array([5], dtype=np.int64), 5)

    def test_check_index_array_empty_ok(self):
        check_index_array(np.empty(0, dtype=np.int64), 0)

    def test_check_permutation_valid(self):
        p = check_permutation([2, 0, 1], 3)
        assert p.tolist() == [2, 0, 1]

    def test_check_permutation_duplicate(self):
        with pytest.raises(ShapeError):
            check_permutation([0, 0, 2], 3)

    def test_check_permutation_wrong_length(self):
        with pytest.raises(ShapeError):
            check_permutation([0, 1], 3)

    def test_check_permutation_out_of_range(self):
        with pytest.raises(ShapeError):
            check_permutation([0, 1, 3], 3)

    def test_check_permutation_empty(self):
        assert check_permutation([], 0).size == 0


class TestRng:
    def test_default_seed_reproducible(self):
        a = make_rng().random(4)
        b = make_rng().random(4)
        np.testing.assert_array_equal(a, b)

    def test_explicit_seed(self):
        a = make_rng(7).random(4)
        b = make_rng(7).random(4)
        np.testing.assert_array_equal(a, b)
        c = make_rng(8).random(4)
        assert not np.array_equal(a, c)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_default_seed_value(self):
        assert DEFAULT_SEED == 20090101


class TestTables:
    def test_basic_table(self):
        s = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_title(self):
        s = format_table(["x"], [[1]], title="T1")
        assert s.splitlines()[0] == "T1"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formats(self):
        s = format_table(["v"], [[1.23456789e9], [0.0], [1e-9]])
        assert "e+09" in s or "e9" in s
        assert "0" in s
