import numpy as np
import pytest

from socialhk.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    max_entry,
    max_min_margin,
    nonneg_nonzero_vector,
    solve_lp,
)

from conftest import philox


class TestSolveLP:
    def test_basic_optimum(self):
        # max x1 + x2 st x1 + x2 <= 4, x1 <= 3 (already slacked)
        a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        res = solve_lp([-1.0, -1.0, 0.0, 0.0], a, [4.0, 3.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-4.0, abs=1e-12)

    def test_infeasible(self):
        res = solve_lp([0.0], np.array([[1.0]]), np.array([-1.0]))
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = solve_lp([-1.0], np.array([[0.0]]), np.array([0.0]))
        assert res.status == UNBOUNDED

    def test_redundant_rows(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        res = solve_lp([1.0, 0.0], a, [1.0, 2.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_zero_rhs(self):
        a = np.array([[1.0, -1.0]])
        res = solve_lp([1.0, 1.0], a, [0.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_feasible_solutions_satisfy_constraints(self):
        rng = philox(127)
        for _ in range(30):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            a = rng.normal(size=(m, n))
            x_true = np.abs(rng.normal(size=n))
            b = a @ x_true  # feasible by construction
            res = solve_lp(rng.normal(size=n), a, b)
            assert res.status in (OPTIMAL, UNBOUNDED)
            if res.status == OPTIMAL:
                assert np.allclose(a @ res.x, b, atol=1e-8)
                assert np.all(res.x >= -1e-9)


class TestMargin:
    def test_single_negative_column(self):
        t, c = max_min_margin(np.array([[-1.0]]))
        assert t == pytest.approx(1.0, abs=1e-9)
        assert c[0] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_sign_column_infeasible(self):
        t, _ = max_min_margin(np.array([[1.0], [-1.0]]))
        assert t <= 1e-9

    def test_two_dims_pick_combination(self):
        cols = np.array([[1.0, -2.0], [-1.0, -2.0]])
        t, c = max_min_margin(cols)
        v = cols @ c
        assert t > 0.5
        assert np.all(v <= -t + 1e-9)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_no_columns_or_no_rows(self, shape):
        t, coeff = max_min_margin(np.zeros(shape))
        assert t == 0.0 and np.array_equal(coeff, np.zeros(shape[1]))


class TestNonnegVector:
    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_no_columns_or_no_rows(self, shape):
        assert nonneg_nonzero_vector(np.zeros(shape)) is None

    def test_antisymmetric_span_empty(self):
        assert nonneg_nonzero_vector(np.array([[1.0], [0.0], [-1.0]])) is None

    def test_negative_column_flips(self):
        y = nonneg_nonzero_vector(np.array([[-1.0], [-2.0]]))
        assert y is not None
        assert np.all(y >= -1e-9) and np.sum(y) == pytest.approx(1.0, abs=1e-9)

    def test_positive_axis_in_plane(self):
        cols = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        y = nonneg_nonzero_vector(cols)
        assert y is not None
        assert y[0] == pytest.approx(0.0, abs=1e-9)
        assert y[2] == pytest.approx(0.0, abs=1e-9)

    def test_negation_symmetric(self):
        rng = philox(131)
        for _ in range(20):
            cols = rng.normal(size=(4, 2))
            a = nonneg_nonzero_vector(cols) is not None
            b = nonneg_nonzero_vector(-cols) is not None
            c = nonneg_nonzero_vector(cols * np.array([1.0, -1.0])) is not None
            assert a == b == c


class TestMaxEntry:
    def test_one_column(self):
        # v = c (1, 0, -2) with v >= -1 means -1 <= c <= 1/2
        col = np.array([[1.0], [0.0], [-2.0]])
        assert [max_entry(col, i) for i in range(3)] == pytest.approx([0.5, 0.0, 2.0], abs=1e-12)

    def test_unbounded_when_a_nonnegative_vector_exists(self):
        cols = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert max_entry(cols, 1) == np.inf
        assert max_entry(cols, 0) == pytest.approx(1.0, abs=1e-12)
