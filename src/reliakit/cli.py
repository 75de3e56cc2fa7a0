"""Config-driven command line front end.

Two subcommands: ``run`` executes one analysis method on one problem and
writes a result record; ``compare`` runs several methods on the same
problem and emits a single CSV table.  A config is a JSON document, checked
in full before any model evaluation happens, and a fixed config plus seed
reproduces output files byte for byte.  A method's options are the
keywords of the library functions it calls, checked by the library's own
option check.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from ._blas import one_blas_thread
from .errors import ReliakitError
from .estimators import (
    _OPTION_RANGES,
    InstrumentalDensity,
    _checked,
    _fits,
    cornell_index,
    estimate_is,
    estimate_mc,
    form,
)
from .kriging import adaptive_margin_design, ak_estimate, ak_mcs
from .limitstate import (
    EvalLedger,
    LimitState,
    benchmark_linear,
    benchmark_waarts,
    limit_state_from_expression,
)
from .metais import metais_estimate
from .pce import pce_estimate
from .probmodel import RandomVector, make_rng, standard_normal_vector
from .response_surface import qrs_estimate

__all__ = ["main", "run", "compare"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (ReliakitError, np.linalg.LinAlgError, OverflowError, FloatingPointError,
                     MemoryError)


class ConfigError(ValueError):
    """Invalid configuration (file, structure, option, or override syntax)."""


def _finite_number(text: str) -> float:
    # json accepts NaN, Infinity and overflowing literals such as 1e999;
    # none of them is a usable option or parameter
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError(f"{text} is not a finite number")
    return val


def _parse_json(text: str):
    return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)


def _numbers(*lists) -> bool:
    """Whether each of ``lists`` is a list of numbers."""
    return all(isinstance(v, list) and all(_fits(x, float, -math.inf, math.inf) for x in v)
               for v in lists)


def _fields(entry, what: str, allowed: str, required: str = "") -> dict:
    """``entry``, if it is an object with every ``required`` key and only ``allowed`` ones."""
    keys = entry.keys() if isinstance(entry, dict) else None
    if keys is None or not set(required.split()) <= keys <= set(allowed.split()):
        got = type(entry).__name__ if keys is None else sorted(keys)
        needs = f"the keys ({required}) and " if required else ""
        raise ConfigError(f"{what} must be an object with {needs}no key but ({allowed}), not {got}")
    return entry


def _load_config(path: str, require: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _parse_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    _fields(cfg, "the config", "problem method methods output seed", f"problem {require}")
    out = _fields(cfg.get("output", {}), "output", "path format")
    listed = cfg[require] if require == "methods" else [cfg[require]]
    for ok, message in (
        (_fits(cfg.get("seed", 0), int, 0, math.inf), "seed must be a whole number >= 0"),
        (isinstance(out.get("path", "-"), str) and out.get("path") != "",
         "output path must be a non-empty string"),
        (out.get("format", "json") in ("json", "csv"), "output format must be json or csv"),
        (isinstance(listed, list) and listed and all(isinstance(m, dict) for m in listed),
         f"{require} must be a method object or a non-empty list of them"),
    ):
        if not ok:
            raise ConfigError(message)
    return cfg


def _build_problem(problem: dict) -> tuple[LimitState, RandomVector]:
    # anything wrong with the problem definition is a config error, not a
    # numerical failure: it must exit 2 before any model call
    try:
        kind = problem.get("benchmark", "expression") if isinstance(problem, dict) else None
        if kind == "waarts":
            _fields(problem, "the waarts problem", "benchmark", "benchmark")
            return benchmark_waarts(), standard_normal_vector(2)
        if kind == "linear":
            _fields(problem, "the linear problem", "benchmark beta0 dimension", "benchmark beta0")
            beta0, dim = problem["beta0"], problem.get("dimension", 2)
            if not (_fits(beta0, float, -math.inf, math.inf) and _fits(dim, int, 1, 100)):
                raise ValueError("the linear problem needs a number beta0 and a dimension in 1-100")
            return benchmark_linear(beta0, dimension=int(dim)), standard_normal_vector(int(dim))
        _fields(problem, "an expression problem", "expression name marginals correlation",
                "expression marginals")
        margs, rows = problem["marginals"], problem.get("correlation") or []
        if not (isinstance(problem["expression"], str) and isinstance(problem.get("name", ""), str)
                and isinstance(margs, list) and len(margs) <= 100
                and isinstance(rows, list) and _numbers(*rows)):
            raise ValueError("expression and name must be strings, marginals a list of at most "
                             "100 and correlation null or a list of lists of numbers")
        for marg in margs:
            _fields(marg, "a marginal", "family params", "family params")
            if not _numbers(marg["params"]):
                raise ValueError(f"marginal params {marg['params']!r} are not a list of numbers")
        rv = RandomVector.from_dict(problem)
        ls = limit_state_from_expression(
            problem["expression"], rv.dimension, name=problem.get("name", "g")
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid problem definition: {exc}") from None
    return ls, rv


def _instrumental(rv: RandomVector, spec: dict | None) -> InstrumentalDensity:
    if spec is None or spec == {"type": "input"}:
        return InstrumentalDensity.from_random_vector(rv)
    _fields(spec, "instrumental", "type center std", "type center")
    center, std = spec["center"], spec.get("std", 1.0)
    if not (spec["type"] == "gaussian_centered" and _numbers(center)
            and len(center) == rv.dimension and _fits(std, float, math.ulp(0.0), math.inf)):
        raise ConfigError('instrumental must be {"type": "input"} or {"type": "gaussian_centered", '
                          '"center": [one number per input], "std": a number > 0}')
    return InstrumentalDensity.gaussian_centered(np.asarray(center, dtype=float), std)


# One library call per method, adapted only where a config entry or a
# signature differs.  Each entry looks its function up when it is called, so
# a name rebound in this module (a test double, a tracing wrapper) is used.
_METHODS = {
    "mc": lambda ls, rv, n=100_000, **kw: estimate_mc(ls, rv, n, **kw),
    "is": lambda ls, rv, n=10_000, instrumental=None, **kw: estimate_is(
        ls, _instrumental(rv, instrumental), rv.joint_pdf, n, **kw),
    "fosm": lambda ls, rv, seed, **kw: cornell_index(ls, rv, **kw),
    "form": lambda ls, rv, seed, **kw: form(ls, rv, **kw),
    "qrs": lambda ls, rv, **kw: qrs_estimate(ls, rv, **kw),
    "pce": lambda ls, rv, **kw: pce_estimate(ls, rv, **kw),
    "ak": lambda ls, rv, **kw: ak_estimate(ls, rv, **kw),
    "metais": lambda ls, rv, **kw: metais_estimate(ls, rv, **kw),
}


def _option_names(adapter, *targets) -> frozenset[str]:
    """The adapter's own keywords with a default, and the keywords of the
    library functions it reaches that the option check knows."""
    own = {key for key, p in inspect.signature(adapter).parameters.items()
           if p.default is not p.empty}
    reached = {key for fn in targets for key in inspect.signature(fn).parameters}
    return frozenset(own | (reached & _OPTION_RANGES.keys()))


# Each method's options, read once off the functions its entry calls; for ak
# and metais also off the function that their **options reach.
_OPTIONS = {
    name: _option_names(_METHODS[name], *targets)
    for name, targets in {
        "mc": [estimate_mc], "is": [estimate_is], "fosm": [cornell_index], "form": [form],
        "qrs": [qrs_estimate], "pce": [pce_estimate], "ak": [ak_estimate, ak_mcs],
        "metais": [metais_estimate, adaptive_margin_design],
    }.items()
}


def _apply_overrides(method: dict, overrides: list[str], rv: RandomVector) -> dict:
    """The method entry with the overrides applied, and its options checked."""
    out = dict(method)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            val = _parse_json(raw)
        except json.JSONDecodeError:
            val = raw
        out[key.strip()] = val
    name, opts = out.get("name"), {key: val for key, val in out.items() if key != "name"}
    known = _OPTIONS.get(name) if isinstance(name, str) else None
    try:
        if known is None or opts.keys() - known:
            raise ValueError(f"unknown method {name!r}" if known is None
                             else f"{name} takes no option {sorted(opts.keys() - known)}")
        _checked(**opts)
        if "instrumental" in opts:
            _instrumental(rv, opts["instrumental"])
    except ValueError as exc:
        after = " after overrides" if overrides else ""
        raise ConfigError(f"method options invalid{after}: {exc}, in {out}") from None
    return out


def _run_method(ls: LimitState, rv: RandomVector, method: dict, seed: int) -> dict:
    """Run one configured method; options left out take the library defaults."""
    opts = {key: val for key, val in method.items() if key != "name"}
    try:
        result = _METHODS[method["name"]](ls, rv, seed=make_rng(seed), ledger=EvalLedger(), **opts)
    except _NUMERICAL_ERRORS:
        raise
    except ValueError as exc:  # an option in range that the method still rejects
        raise ConfigError(str(exc)) from None
    return result.to_dict()


def _cell(value, spec: str, missing: str = "") -> str:
    return missing if value is None else format(value, spec)


def _summary_line(doc: dict) -> str:
    return (
        f"method={doc['method']} pf={_cell(doc.get('pf'), '.6e', 'nan')} "
        f"beta={_cell(doc.get('beta'), '.4f', 'nan')} "
        f"cov={_cell(doc.get('cov'), '.4f', 'nan')} calls={doc['n_calls']}"
    )


# A failed method's doc holds none of these keys, so its cells stay empty.
_CSV_CELLS = (("pf", ".10e"), ("beta", ".8f"), ("cov", ".8f"), ("n_calls", "d"))


def _result_csv_rows(docs: list[dict]) -> str:
    rows = ["method,pf,beta,cov,n_calls,status\n"]
    for d in docs:
        cells = (_cell(d.get(key), spec) for key, spec in _CSV_CELLS)
        rows.append(f"{d['method']},{','.join(cells)},{d.get('status', 'ok')}\n")
    return "".join(rows)


def _write_text(path: str | None, text: str) -> None:
    """Write the output text to path, or to stdout when no path is set."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _set_up(args, entry: str) -> tuple:
    """Everything a subcommand checks before its first model call, in order.

    Returns the problem entry, the methods with the overrides applied, the
    seed, the output path and format, and the limit state and inputs.
    """
    cfg = _load_config(args.config, require=entry)
    ls, rv = _build_problem(cfg["problem"])
    listed = cfg[entry] if entry == "methods" else [cfg[entry]]
    methods = [_apply_overrides(m, args.method_override or [], rv) for m in listed]
    seed = int(cfg.get("seed", 0) if args.seed is None else args.seed)
    out_cfg = cfg.get("output", {})
    path = args.output or out_cfg.get("path")
    form_ = out_cfg.get("format", "json")
    if path is not None:
        out_dir = os.environ.get("RELIAKIT_OUTPUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        if path.endswith(".csv"):
            form_ = "csv"
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"output directory of {path!r} does not exist")
    return cfg["problem"], methods, seed, path, form_, (ls, rv)


def run(args) -> int:
    problem, (method,), seed, path, form_, (ls, rv) = _set_up(args, "method")
    doc = _run_method(ls, rv, method, seed)
    if form_ == "csv":
        text = _result_csv_rows([doc])
    else:
        record = {"problem": problem, "seed": seed, "result": doc}
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    _write_text(path, text)
    print(_summary_line(doc), file=sys.stderr)
    return _EXIT_OK


def compare(args) -> int:
    _, methods, seed, path, _, (ls, rv) = _set_up(args, "methods")
    docs: list[dict] = []
    for i, method in enumerate(methods):
        try:
            docs.append(_run_method(ls, rv, method, seed + i))
        except _NUMERICAL_ERRORS as exc:
            # the reason goes to stderr; the CSV's status cell stays an enum
            # so downstream parsers never meet free text
            print(f"method {method['name']} failed: {exc}", file=sys.stderr)
            docs.append({"method": method["name"], "status": "failed"})
    _write_text(path, _result_csv_rows(docs))
    return _EXIT_NUMERICAL if all(d.get("status") == "failed" for d in docs) else _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reliakit",
        description="Reliability analysis runner: estimate failure "
        "probabilities with sampling, gradient, and surrogate methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("run", run, "run one method from a config file"),
        ("compare", compare, "run every configured method and emit one CSV"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output path")
        p.add_argument(
            "--method-override",
            action="append",
            metavar="KEY=VALUE",
            help="override one method option (repeatable)",
        )
        p.set_defaults(func=fn)
    return parser


@one_blas_thread
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
