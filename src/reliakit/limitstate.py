"""Limit-state functions, evaluation accounting and experimental designs.

A limit state g partitions the input space into a safe domain (g > 0) and a
failure domain (g <= 0).  Every call to the true model is routed through
:func:`evaluate_batch` so that an :class:`EvalLedger` can count them; the
whole point of surrogate methods is to keep that count small, so the ledger
is the cost meter for every estimator in the package.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.spatial import cKDTree

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
    prefers the latter.  Give at least one: with only ``vector_evaluator``
    the single-point form is derived from it.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], float] | None = None
    name: str = "g"
    fixed_params: Mapping[str, float] = field(default_factory=dict)
    vector_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        vec = self.vector_evaluator
        if self.evaluator is None:
            if vec is None:
                raise ValueError("a limit state needs an evaluator or a vector_evaluator")
            object.__setattr__(self, "evaluator", lambda x: float(vec(np.asarray(x)[None, :])[0]))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"{self.name} expects shape ({self.dimension},), got {x.shape}")
        return float(self.evaluator(x))


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
        fixed_params={"beta0": beta0},
        vector_evaluator=vector,
    )


_ALLOWED_FUNCS = {
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "pi": math.pi,
    "e": math.e,
}

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
    try:
        code = compile(tree, "<limit-state>", "eval")
    except RecursionError:  # a sum of a few thousand terms nests one node per term
        raise ModelError("expression is too long or too deeply nested to compile") from None
    base_env = dict(_ALLOWED_FUNCS)
    base_env.update(params)

    def scalar(x: np.ndarray) -> float:
        env = dict(base_env)
        for nm, idx in var_names.items():
            env[nm] = float(x[idx])
        try:
            return float(eval(code, {"__builtins__": {}}, env))
        except TypeError as exc:  # a complex value, e.g. a negative base to a fractional power
            raise ValueError(f"the expression has no real value: {exc}") from None

    return LimitState(
        dimension=dimension,
        evaluator=scalar,
        name=name,
        fixed_params=params,
    )
