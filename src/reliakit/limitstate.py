"""Limit-state functions, evaluation accounting and experimental designs.

A limit state g partitions the input space into a safe domain (g > 0) and a
failure domain (g <= 0).  Every call to the true model is routed through
:func:`evaluate_batch` so that an :class:`EvalLedger` can count them; the
whole point of surrogate methods is to keep that count small, so the ledger
is the cost meter for every estimator in the package.  A single-point call
``ls(x)`` is a one-row batch with no ledger: checked the same way, not counted.
"""

from __future__ import annotations

import ast
import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ModelError

__all__ = [
    "EvalLedger",
    "LimitState",
    "evaluate_batch",
    "ExperimentalDesign",
    "benchmark_waarts",
    "benchmark_linear",
    "limit_state_from_expression",
]


class EvalLedger:
    """Counter of true limit-state evaluations."""

    def __init__(self):
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def record(self, n: int):
        self._count += n

    def reset(self):
        self._count = 0


@dataclass(frozen=True)
class LimitState:
    """A deterministic performance function g : R^M -> R.

    ``evaluator`` maps one point (array of shape (M,)) to a float, and
    ``vector_evaluator`` an (n, M) array to n values; :func:`evaluate_batch`
    prefers the latter.  Give at least one.  ``ls(x)`` at one point is a
    one-row :func:`evaluate_batch` with no ledger.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], float] | None = None
    name: str = "g"
    vector_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.evaluator is None and self.vector_evaluator is None:
            raise ValueError("a limit state needs an evaluator or a vector_evaluator")

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"{self.name} expects shape ({self.dimension},), got {x.shape}")
        return float(evaluate_batch(self, x[None, :])[0])


def evaluate_batch(
    ls: LimitState,
    xs,
    ledger: EvalLedger | None = None,
) -> np.ndarray:
    """Evaluate g at each row of xs, count the calls, and check finiteness.

    The ledger counts every row the model saw, also when the batch fails:
    all rows of a batch with a non-finite output or whose vector evaluator
    raised, and the rows up to and including the one where the scalar
    evaluator raised.  An evaluator's ``ArithmeticError`` or ``ValueError``
    is re-raised as :class:`ModelError` naming the batch, or for the scalar
    evaluator the row and the point.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != ls.dimension:
        raise ValueError(f"expected {ls.dimension} columns, got shape {xs.shape}")
    n = xs.shape[0]
    if ls.vector_evaluator is not None:
        try:
            out = np.asarray(ls.vector_evaluator(xs), dtype=float).reshape(n)
        except (ArithmeticError, ValueError) as exc:
            if ledger is not None:
                ledger.record(n)
            raise ModelError(f"{ls.name} failed on a batch of {n} rows: {exc}") from exc
    else:
        vals: list[float] = []
        try:
            for x in xs:
                vals.append(ls.evaluator(x))
        except (ArithmeticError, ValueError) as exc:
            i = len(vals)
            if ledger is not None:
                ledger.record(i + 1)
            raise ModelError(f"{ls.name} failed at row {i}: {xs[i]!r}: {exc}") from exc
        out = np.array(vals, dtype=float)
    if ledger is not None:
        ledger.record(n)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ModelError(
            f"{ls.name} returned a non-finite value at row {bad[0]}: {xs[bad[0]]!r}"
        )
    return out


@dataclass(frozen=True)
class ExperimentalDesign:
    """An evaluated design: points (N, M) with their responses (N,)."""

    points: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        from scipy.spatial import cKDTree  # here, not at the top: only a design needs it
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        resp = np.atleast_1d(np.asarray(self.responses, dtype=float))
        if pts.shape[0] != resp.shape[0]:
            raise ValueError("points and responses disagree on N")
        if pts.shape[0] == 0:
            raise ValueError("design must contain at least one point")
        # Coincident points make correlation matrices exactly singular, so
        # reject them up front instead of failing deep inside a factorization.
        close = cKDTree(pts).query_pairs(1e-12, p=np.inf)
        if close:
            i, j = min(close)
            raise ValueError(f"duplicate design points at rows {i} and {j}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", resp)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def extended(self, new_points, new_responses) -> "ExperimentalDesign":
        """A new design with extra rows appended (duplicates re-checked)."""
        pts = np.vstack([self.points, np.atleast_2d(np.asarray(new_points, dtype=float))])
        resp = np.concatenate(
            [self.responses, np.atleast_1d(np.asarray(new_responses, dtype=float))]
        )
        return ExperimentalDesign(pts, resp)


_SQRT2 = math.sqrt(2.0)


def _waarts_vector(xs: np.ndarray) -> np.ndarray:
    d = (xs[:, 0] - xs[:, 1]) ** 2 / 10.0
    s = (xs[:, 0] + xs[:, 1]) / _SQRT2
    branches = np.stack(
        [
            3.0 + d - s,
            3.0 + d + s,
            xs[:, 0] - xs[:, 1] + 7.0 / _SQRT2,
            xs[:, 1] - xs[:, 0] + 7.0 / _SQRT2,
        ]
    )
    return branches.min(axis=0)


def benchmark_waarts() -> LimitState:
    """Four-branch series system in two standard normal variables.

    The failure domain is the union of four branch regions: two parabolic
    branches at distance 3 from the origin and two linear branches at
    distance 3.5.  A standard benchmark for methods that must discover
    multiple disjoint failure regions.
    """
    return LimitState(
        dimension=2,
        name="four_branch",
        vector_evaluator=_waarts_vector,
    )


def benchmark_linear(beta0: float, direction=None, dimension: int | None = None) -> LimitState:
    """Linear limit state g(u) = beta0 - e . u in standard normal space.

    The exact failure probability is Phi(-beta0).  ``direction`` (default
    the first axis) is normalized internally; its length sets the dimension
    unless ``dimension`` is given with ``direction=None``.
    """
    if direction is None:
        m = 2 if dimension is None else int(dimension)
        e = np.zeros(m)
        e[0] = 1.0
    else:
        e = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(e)
        if norm == 0.0:
            raise ValueError("direction must be a nonzero vector")
        e = e / norm
        m = e.size
    beta0 = float(beta0)

    def vector(xs: np.ndarray) -> np.ndarray:
        return beta0 - xs @ e

    return LimitState(
        dimension=m,
        name=f"linear_b{beta0:g}",
        vector_evaluator=vector,
    )


def _reduce(ufunc, *args):  # min(a, b, ...) or min((a, b, ...))
    items = args[0] if len(args) == 1 and isinstance(args[0], tuple) else args
    return functools.reduce(ufunc, items)


# numpy's ufuncs, each taking one argument as math's functions do (numpy
# would take a second one as its output array)
_ALLOWED_FUNCS = {
    "min": functools.partial(_reduce, np.minimum),
    "max": functools.partial(_reduce, np.maximum),
    "sqrt": lambda x: np.sqrt(x),
    "exp": lambda x: np.exp(x),
    "log": lambda x, base=None: np.log(x) if base is None else np.log(x) / np.log(base),
    "abs": lambda x: np.abs(x),
    "sin": lambda x: np.sin(x),
    "cos": lambda x: np.cos(x),
    "tan": lambda x: np.tan(x),
    "atan": lambda x: np.arctan(x),
    "pi": math.pi,
    "e": math.e,
}

_COMPARISONS = {"Lt": np.less, "LtE": np.less_equal, "Gt": np.greater, "GtE": np.greater_equal}
_EVAL_ERRORS = (ArithmeticError, ValueError, TypeError, RecursionError)


def _power(base, exponent):
    try:
        return np.power(base, exponent)
    except FloatingPointError as exc:
        if np.any((np.asarray(base) < 0.0) & (np.asarray(exponent) % 1.0 != 0.0)):
            raise ValueError(f"the expression has no real value: {exc}") from None
        raise


def _compare(ops, left, *rest):
    """A chained comparison: 1.0 on the rows where it holds, 0.0 elsewhere."""
    fs, cols = rest[: len(ops)], rest[len(ops) :]
    out = np.zeros(cols[0].shape[0])
    rows = np.arange(out.size)
    for op, f in zip(ops, fs):
        if rows.size:
            right = np.broadcast_to(f(*cols), rows.shape)
            held = _COMPARISONS[op](left, right)
            rows, cols, left = rows[held], tuple(c[held] for c in cols), right[held]
    out[rows] = 1.0
    return out


def _if(test, body, orelse, *cols):
    t = np.broadcast_to(np.asarray(test) != 0.0, cols[0].shape[:1])
    out = np.empty(t.shape)
    for rows, branch in ((t, body), (~t, orelse)):
        if rows.any():
            out[rows] = branch(*(c[rows] for c in cols))
    return out


def _columnwise(node, variables):
    """A power, comparison or conditional as a call of its helper above, or None.

    An operand that Python may skip becomes a function of the columns that the
    helper calls on the rows that reach it; the zero-width ``__rows`` counts them.
    """

    def at(cls, **fields):  # compile needs a position on every node
        return cls(**fields, lineno=1, col_offset=0, end_lineno=1, end_col_offset=0)

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        helper, args, lazy = "__power", [node.left, node.right], []
    elif isinstance(node, ast.Compare):
        ops = at(ast.Constant, value=tuple(type(op).__name__ for op in node.ops))
        helper, args, lazy = "__compare", [ops, node.left], node.comparators
    elif isinstance(node, ast.IfExp):
        helper, args, lazy = "__if", [node.test], [node.body, node.orelse]
    else:
        return None
    if lazy:
        used = {n.id for e in lazy for n in ast.walk(e) if isinstance(n, ast.Name)}
        names = ("__rows", *sorted(used & variables))
        sig = ast.arguments(posonlyargs=[], args=[at(ast.arg, arg=v) for v in names],
                            kwonlyargs=[], kw_defaults=[], defaults=[])
        args += [at(ast.Lambda, args=sig, body=e) for e in lazy]
        args += [at(ast.Name, id=v, ctx=ast.Load()) for v in names]
    return at(ast.Call, func=at(ast.Name, id=helper, ctx=ast.Load()), args=args, keywords=[])


def _fails(run, xs: np.ndarray):
    """The error that ``run`` raises on xs, or None."""
    try:
        run(xs)
    except _EVAL_ERRORS as exc:
        return exc
    return None


_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.Mod,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Tuple,
    ast.Compare,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.IfExp,
)


def limit_state_from_expression(
    expression: str,
    dimension: int,
    name: str = "g",
    params: Mapping[str, float] | None = None,
) -> LimitState:
    """Build a limit state from a restricted arithmetic expression.

    Variables are ``x1`` .. ``xM``.  Allowed: arithmetic operators
    (``^`` is accepted as power), comparisons, conditional expressions, and
    the functions min/max/sqrt/exp/log/abs/sin/cos/tan/atan plus constants
    pi and e.  Extra named constants come from ``params``.  Anything else
    (attributes, subscripts, imports, ...) is rejected at build time.

    A batch is evaluated on numpy columns: a comparison gives 1.0 or 0.0, and
    an operand that Python would skip is evaluated only on the other rows.  An
    error (no real value, overflow, ...) names the first failing row; an
    underflow gives 0.0, as for Python floats.
    """
    src = expression.replace("^", "**").replace("×", "*").replace("÷", "/")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ModelError(f"cannot parse expression: {exc}") from None
    except (RecursionError, MemoryError):  # how the parser reports too deep a nesting
        raise ModelError("expression is too long or too deeply nested to parse") from None
    params = dict(params or {})
    var_names = {f"x{i + 1}": i for i in range(dimension)}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ModelError(f"disallowed syntax in expression: {type(node).__name__}")
        if isinstance(node, ast.Name):
            nm = node.id
            if nm not in var_names and nm not in _ALLOWED_FUNCS and nm not in params:
                raise ModelError(f"unknown name {nm!r} in expression")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ModelError("only whitelisted function calls are allowed")
        if isinstance(node, ast.Constant):
            # float literals keep integer powers such as 9**9**9 from growing
            # without bound; they overflow at once instead
            if not isinstance(node.value, (int, float)):
                raise ModelError(f"non-numeric constant {node.value!r} in expression")
            node.value = float(node.value)
    # children before parents, and without recursion: a long sum nests one node per term
    for parent in reversed(list(ast.walk(tree))):
        for fieldname, value in ast.iter_fields(parent):
            if isinstance(value, list):
                value[:] = [_columnwise(v, var_names.keys()) or v for v in value]
            elif isinstance(value, ast.AST):
                setattr(parent, fieldname, _columnwise(value, var_names.keys()) or value)
    try:
        code = compile(tree, "<limit-state>", "eval")
    except RecursionError:  # a sum of a few thousand terms nests one node per term
        raise ModelError("expression is too long or too deeply nested to compile") from None
    env = {"__builtins__": {}, **_ALLOWED_FUNCS, **params, "__power": _power,
           "__compare": _compare, "__if": _if}

    def run(xs: np.ndarray) -> np.ndarray:
        cols = {nm: xs[:, i] for nm, i in var_names.items()}
        # Python floats underflow to zero silently, and so do these columns
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = eval(code, {**env, **cols, "__rows": np.empty((xs.shape[0], 0))})
        return np.full(xs.shape[0], out) if np.ndim(out) == 0 else out

    def vector(xs: np.ndarray) -> np.ndarray:
        try:
            return run(xs) if xs.shape[0] else np.empty(0)  # no row, nothing evaluated
        except _EVAL_ERRORS as exc:
            # the first failing row ends the shortest failing prefix: O(log n) passes
            n = xs.shape[0]
            i = bisect.bisect_left(range(n), True, key=lambda k: bool(_fails(run, xs[: k + 1])))
            raise ValueError(f"row {i}: {xs[i]!r}: {_fails(run, xs[i : i + 1]) or exc}") from exc

    return LimitState(
        dimension=dimension,
        name=name,
        vector_evaluator=vector,
    )
