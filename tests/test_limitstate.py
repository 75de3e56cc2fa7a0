"""Limit-state wrappers, benchmarks, designs and the expression parser."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reliakit
from reliakit import (
    EvalLedger,
    ExperimentalDesign,
    LimitState,
    ModelError,
    benchmark_linear,
    benchmark_waarts,
    evaluate_batch,
    limit_state_from_expression,
    standard_normal_vector,
)

SQ2 = math.sqrt(2.0)


class TestWaarts:
    def test_origin_value(self):
        ls = benchmark_waarts()
        assert ls(np.zeros(2)) == pytest.approx(3.0)

    def test_min_of_branches(self):
        # independent re-statement of the four branch functions
        def oracle(x1, x2):
            q = 3.0 + (x1 - x2) ** 2 / 10.0
            return min(
                q - (x1 + x2) / SQ2,
                q + (x1 + x2) / SQ2,
                (x1 - x2) + 7.0 / SQ2,
                (x2 - x1) + 7.0 / SQ2,
            )

        ls = benchmark_waarts()
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2)) * 3.0
        want = np.array([oracle(*p) for p in pts])
        got = evaluate_batch(ls, pts)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_failure_set_matches_rotated_form(self):
        # in rotated coordinates s=(x1+x2)/sqrt2, t=(x1-x2)/sqrt2 failure is
        # |s| >= 3 + t^2/5 or |t| >= 3.5
        ls = benchmark_waarts()
        rng = np.random.default_rng(1)
        pts = rng.uniform(-8, 8, size=(5000, 2))
        s = (pts[:, 0] + pts[:, 1]) / SQ2
        t = (pts[:, 0] - pts[:, 1]) / SQ2
        oracle_fail = (np.abs(s) >= 3.0 + t**2 / 5.0) | (np.abs(t) >= 3.5)
        got_fail = evaluate_batch(ls, pts) <= 0.0
        np.testing.assert_array_equal(got_fail, oracle_fail)

    def test_scalar_and_vector_paths_agree(self):
        ls = benchmark_waarts()
        pts = np.random.default_rng(2).normal(size=(64, 2))
        scalar = np.array([ls.evaluator(p) for p in pts])
        np.testing.assert_allclose(ls.vector_evaluator(pts), scalar, rtol=1e-14)


class TestSinglePointForm:
    def test_derived_from_vector_evaluator(self):
        def g(xs):
            return xs[:, 0] * np.exp(xs[:, 1]) - 0.3

        ls = LimitState(2, vector_evaluator=g)
        for x in np.random.default_rng(4).normal(size=(10, 2)):
            assert ls(x) == g(x[None])[0]

    def test_needs_an_evaluator(self):
        with pytest.raises(ValueError, match="evaluator"):
            LimitState(2)


class TestLinearBenchmark:
    def test_default_direction(self):
        ls = benchmark_linear(2.0, dimension=3)
        assert ls(np.zeros(3)) == pytest.approx(2.0)
        assert ls(np.array([2.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_direction_is_normalized(self):
        ls = benchmark_linear(1.5, direction=[3.0, 4.0])
        # moving one unit along e reduces g by one
        e = np.array([0.6, 0.8])
        assert ls(2.0 * e) == pytest.approx(-0.5)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            benchmark_linear(2.0, direction=[0.0, 0.0])


class TestEvaluateBatch:
    def test_ledger_counts_and_reset(self):
        ls = benchmark_waarts()
        ledger = EvalLedger()
        pts = np.random.default_rng(3).normal(size=(37, 2))
        evaluate_batch(ls, pts, ledger=ledger)
        assert ledger.count == 37
        evaluate_batch(ls, pts[:5], ledger=ledger)
        assert ledger.count == 42
        ledger.reset()
        assert ledger.count == 0

    @pytest.mark.parametrize("vector", [False, True])
    def test_batch_with_nonfinite_output_is_counted(self, vector):
        def g(x):
            return math.nan if x[0] == 2.0 else 1.0

        vec = (lambda xs: np.array([g(x) for x in xs])) if vector else None
        ledger = EvalLedger()
        with pytest.raises(ModelError, match="row 2"):
            evaluate_batch(LimitState(1, g, vector_evaluator=vec), np.arange(5.0)[:, None], ledger=ledger)
        assert ledger.count == 5

    def test_raising_vector_evaluator_counts_the_whole_batch(self):
        def g(xs):
            raise ZeroDivisionError("division by zero")

        ledger = EvalLedger()
        with pytest.raises(ModelError, match="batch of 5 rows") as info:
            evaluate_batch(LimitState(2, vector_evaluator=g), np.ones((5, 2)), ledger=ledger)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert ledger.count == 5

    def test_raising_evaluator_counts_rows_up_to_the_failure(self):
        seen = []

        def g(x):
            seen.append(x[0])
            return math.log(x[0])

        ledger = EvalLedger()
        pts = np.array([[1.0], [2.0], [-1.0], [3.0]])
        with pytest.raises(ModelError, match=r"row 2: array\(\[-1\.\]\)"):
            evaluate_batch(LimitState(1, g), pts, ledger=ledger)
        assert seen == [1.0, 2.0, -1.0]
        assert ledger.count == 3

    def test_nonfinite_response_raises(self):
        ls = LimitState(1, lambda x: float("nan") if x[0] > 0 else 1.0)
        with pytest.raises(ModelError, match="row 1"):
            evaluate_batch(ls, np.array([[-1.0], [2.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            benchmark_waarts()(np.zeros(3))


class TestExperimentalDesign:
    def test_duplicate_rows_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ExperimentalDesign(pts, np.zeros(3))

    def test_near_duplicate_rejected(self):
        pts = np.array([[0.0, 0.0], [1e-13, 0.0]])
        with pytest.raises(ValueError):
            ExperimentalDesign(pts, np.zeros(2))

    def test_near_duplicate_rows_that_do_not_sort_together_rejected(self):
        # sorted by the first coordinate, row 1 sits between rows 0 and 2
        pts = np.array([[0.0, 5.0], [5e-14, 3.0], [1e-13, 5.0]])
        with pytest.raises(ValueError, match="rows 0 and 2"):
            ExperimentalDesign(pts, np.zeros(3))

    def test_extended_appends(self):
        d = ExperimentalDesign(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        d2 = d.extended(np.array([[2.0]]), np.array([3.0]))
        assert d2.size == 3
        np.testing.assert_allclose(d2.responses, [1.0, 2.0, 3.0])
        assert d.size == 2  # original untouched

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentalDesign(np.zeros((3, 2)), np.zeros(4))


class TestExpressionParser:
    def test_basic_arithmetic(self):
        ls = limit_state_from_expression("x1 - 2*x2 + 1", 2)
        assert ls(np.array([3.0, 1.0])) == pytest.approx(2.0)

    def test_min_max_and_functions(self):
        ls = limit_state_from_expression("min(x1, x2) + sqrt(abs(x1))", 2)
        assert ls(np.array([4.0, 1.0])) == pytest.approx(3.0)

    def test_caret_means_power(self):
        ls = limit_state_from_expression("x1^2 + 1", 1)
        assert ls(np.array([3.0])) == pytest.approx(10.0)

    def test_parameters_substituted(self):
        ls = limit_state_from_expression("k - x1", 1, params={"k": 5.0})
        assert ls(np.array([2.0])) == pytest.approx(3.0)

    def test_conditional_expression(self):
        ls = limit_state_from_expression("x1 if x1 > 0 else -x1", 1)
        assert ls(np.array([-2.0])) == pytest.approx(2.0)

    def test_constants_pi_e(self):
        ls = limit_state_from_expression("cos(pi) + x1", 1)
        assert ls(np.array([0.0])) == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "expr",
        [
            "__import__('os').system('true')",
            "x1.__class__",
            "open('f')",
            "x3 + 1",  # undeclared variable for dimension 2
            "lambda: 1",
            "[1,2][0]",
        ],
    )
    def test_hostile_or_invalid_expressions_rejected(self, expr):
        with pytest.raises(ValueError):
            limit_state_from_expression(expr, 2)

    def test_batch_evaluation(self):
        ls = limit_state_from_expression("x1*x2", 2)
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(evaluate_batch(ls, pts), [2.0, 12.0])

    @pytest.mark.parametrize(
        "expr", ["(x1 - 5)^0.5 + 1", "sqrt((x1 - 5)^0.5)", "(x1 - 5)^0.5 < 1"]
    )
    def test_complex_value_is_a_counted_model_error(self, expr):
        ls = limit_state_from_expression(expr, 1)
        ledger = EvalLedger()
        pts = np.array([[6.0], [9.0], [1.0], [7.0]])
        with pytest.raises(ModelError, match="row 2.*no real value"):
            evaluate_batch(ls, pts, ledger=ledger)
        assert ledger.count == 4


def _row_by_row(expr: str, xs: np.ndarray, params: dict) -> np.ndarray:
    """Python's own eval of the expression on each row, with math's functions."""
    env = {"min": min, "max": max, "abs": abs, "sqrt": math.sqrt, "exp": math.exp,
           "log": math.log, "sin": math.sin, "cos": math.cos, "tan": math.tan,
           "atan": math.atan, "pi": math.pi, "e": math.e, **params}
    code = compile(expr.replace("^", "**"), "<oracle>", "eval")
    return np.array([
        float(eval(code, {"__builtins__": {}}, {**env, **{f"x{i + 1}": v for i, v in enumerate(row)}}))
        for row in xs.tolist()
    ])


class TestVectorExpression:
    ROWS = np.random.default_rng(27).normal(size=(1000, 3)) * [2.0, 1.0, 3.0]
    PARAMS = {"k": 2.5, "c": -0.75}

    @pytest.mark.parametrize(
        "expr",
        [
            "x1 + 2*x2 - x3 / 3 * (x1 - c)",
            "x1 % 0.7 - x2 % -1.3",
            "-x1 + -(x2 < 0) - +x3",
            "(0 < x1 < 1) + (x1 <= x2 >= x3 > -1)",
            "x1 if x2 > 0 else x3 * k",
            "min(x1, x2, x3) + max((x1, x2, x3)) - max(x1, k) * min((x2,))",
            "abs(x3) + sqrt(abs(x1))",
            "pi * x1 + e * k",
            "2 * pi - k",
        ],
    )
    def test_bit_equal_to_python_row_by_row(self, expr):
        ls = limit_state_from_expression(expr, 3, params=self.PARAMS)
        got = evaluate_batch(ls, self.ROWS)
        assert got.shape == (1000,)
        np.testing.assert_array_equal(got, _row_by_row(expr, self.ROWS, self.PARAMS))

    # numpy's exp, log, trig and power (SIMD, and x*x for x^2) are not glibc's
    @pytest.mark.parametrize(
        "expr",
        ["exp(x1 / 2)", "log(abs(x2) + 1)", "log(abs(x2) + 2, 10)", "sin(x3)", "cos(x1)",
         "tan(x2 / 2)", "atan(x3)", "x1^2", "abs(x2)^0.5", "x3^3", "abs(x1)^x2"],
    )
    def test_within_one_ulp_of_python_row_by_row(self, expr):
        ls = limit_state_from_expression(expr, 3)
        want = _row_by_row(expr, self.ROWS, {})
        got = evaluate_batch(ls, self.ROWS)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    @pytest.mark.parametrize(
        "expr", ["sqrt(x1) if x1 > 0 else -x1", "x1 if x1 <= 0 else log(x1)", "x1 > 0 < log(x1) + 9"]
    )
    def test_untaken_branch_is_not_evaluated(self, expr):
        ls = limit_state_from_expression(expr, 1)
        xs = np.array([[-4.0], [0.0], [2.0], [-1.0]])
        np.testing.assert_array_equal(evaluate_batch(ls, xs), _row_by_row(expr, xs, {}))

    def test_underflow_is_zero_as_for_python_floats(self):
        assert math.exp(-800) == 0.0
        ls = limit_state_from_expression("exp(x1 - 800) + x1 * 1e-300 * 1e-300", 1)
        np.testing.assert_array_equal(evaluate_batch(ls, np.array([[0.0], [1.0]])), [0.0, 0.0])

    def test_longest_sum_that_compiles(self):
        # the compiler's depth limit counts the caller's frames, so run at top level
        script = (
            "import numpy as np\n"
            "from reliakit import ModelError, evaluate_batch, limit_state_from_expression as f\n"
            "xs = np.array([[1.0], [0.25], [-2.0]])\n"
            "assert evaluate_batch(f(' + '.join(['x1'] * 997), 1), xs).tolist() == [997.0, 249.25, -1994.0]\n"
            "try:\n"
            "    f(' + '.join(['x1'] * 998), 1)\n"
            "except ModelError as exc:\n"
            "    assert 'too long' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('998 terms compiled')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(reliakit.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_error_names_the_first_failing_row_and_its_own_error(self):
        # the whole batch fails first at log, on row 700; row 500 fails only at exp
        xs = np.ones((1000, 2))
        xs[500, 1], xs[700, 0] = 1000.0, -1.0
        ledger = EvalLedger()
        with pytest.raises(ModelError, match=r"row 500: array\(\[ *1\., 1000\.\]\): overflow"):
            evaluate_batch(limit_state_from_expression("log(x1) + exp(x2)", 2), xs, ledger)
        assert ledger.count == 1000


def test_fixed_params_recorded():
    ls = benchmark_linear(2.5, dimension=2)
    assert ls.fixed_params.get("beta0") == pytest.approx(2.5)
    assert standard_normal_vector(2).dimension == ls.dimension
