"""Config-driven command line front end.

Two subcommands: ``run`` executes one analysis method on one problem and
writes a result record; ``compare`` runs several methods on the same
problem and emits a single CSV table.  Configs are JSON documents checked
against a schema before any model evaluation happens, and a fixed config
plus seed reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from ._blas import one_blas_thread
from .errors import ReliakitError
from .estimators import InstrumentalDensity, cornell_index, estimate_is, estimate_mc, form
from .kriging import ak_estimate
from .limitstate import (
    EvalLedger,
    LimitState,
    benchmark_linear,
    benchmark_waarts,
    limit_state_from_expression,
)
from .metais import metais_estimate
from .pce import pce_estimate
from .probmodel import Marginal, RandomVector, make_rng, standard_normal_vector
from .response_surface import qrs_estimate

__all__ = ["main", "run", "compare"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (ReliakitError, np.linalg.LinAlgError, OverflowError, FloatingPointError,
                     MemoryError)

_MARGINAL_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["gaussian", "uniform", "lognormal", "gamma", "beta"]},
        "params": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 4,
        },
    },
    "required": ["family", "params"],
    "additionalProperties": False,
}

_PROBLEM_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"benchmark": {"const": "waarts"}},
            "required": ["benchmark"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "benchmark": {"const": "linear"},
                "beta0": {"type": "number"},
                "dimension": {"type": "integer", "minimum": 1, "maximum": 100},
            },
            "required": ["benchmark", "beta0"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "expression": {"type": "string", "minLength": 1},
                "name": {"type": "string"},
                "marginals": {
                    "type": "array",
                    "items": _MARGINAL_SCHEMA,
                    "minItems": 1,
                    "maxItems": 100,
                },
                "correlation": {
                    "type": ["array", "null"],
                    "items": {"type": "array", "items": {"type": "number"}},
                },
            },
            "required": ["expression", "marginals"],
            "additionalProperties": False,
        },
    ]
}

_COUNT = {"type": "integer", "minimum": 1}
_ROWS = dict(_COUNT, maximum=10**9)  # every sample size stops at mc's cap
_POS = {"type": "number", "exclusiveMinimum": 0}

_METHOD_OPTION_SCHEMAS = {
    "mc": {"n": _ROWS},
    "is": {
        "n": _ROWS,
        "instrumental": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {"type": {"const": "input"}},
                    "required": ["type"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "gaussian_centered"},
                        "center": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 1,
                        },
                        "std": _POS,
                    },
                    "required": ["type", "center"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "fosm": {"step": _POS},
    "form": {"tol": _POS, "gtol": _POS, "max_iter": _COUNT},
    "qrs": {"n_design": _ROWS, "n_surrogate": _ROWS, "include_cross": {"type": "boolean"}},
    "pce": {
        "degree": {"type": "integer", "minimum": 1, "maximum": 20},
        "target_error": _POS,
        "p_max": {"type": "integer", "minimum": 1, "maximum": 20},
        "n_surrogate": _ROWS,
    },
    "ak": {
        "n_pool": _ROWS,
        "u_stop": _POS,
        "budget": _COUNT,
        "n_bounds": _ROWS,
        "k": _POS,
    },
    "metais": {
        "n_epsilon": _ROWS,
        "n_corr": _ROWS,
        "k": _POS,
        "n_clusters": _COUNT,
        "tol": _POS,
        "budget": _COUNT,
        "n_bounds": _ROWS,
        "n_chain": _COUNT,
    },
}


def _method_schema(name: str) -> dict:
    props = {"name": {"const": name}}
    props.update(_METHOD_OPTION_SCHEMAS[name])
    return {
        "type": "object",
        "properties": props,
        "required": ["name"],
        "additionalProperties": False,
    }


_METHOD_SCHEMA = {"oneOf": [_method_schema(n) for n in _METHOD_OPTION_SCHEMAS]}

_OUTPUT_SCHEMA = {
    "type": "object",
    "properties": {
        "path": {"type": "string", "minLength": 1},
        "format": {"enum": ["json", "csv"]},
    },
    "additionalProperties": False,
}

_RUN_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": _PROBLEM_SCHEMA,
        "method": _METHOD_SCHEMA,
        "methods": {"type": "array", "items": _METHOD_SCHEMA, "minItems": 1},
        "output": _OUTPUT_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["problem"],
    "additionalProperties": False,
}

# Built once; jsonschema.validate would re-check each schema on every call.
_RUN_VALIDATOR = validator_for(_RUN_SCHEMA)(_RUN_SCHEMA)
_METHOD_VALIDATOR = validator_for(_METHOD_SCHEMA)(_METHOD_SCHEMA)


class ConfigError(ValueError):
    """Invalid configuration (schema, file, or override syntax)."""


def _finite_number(text: str) -> float:
    # json and jsonschema both accept NaN, Infinity and overflowing literals
    # such as 1e999; none of them is a usable option or parameter
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError(f"{text} is not a finite number")
    return val


def _parse_json(text: str):
    return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)


def _validate(validator, instance, context: str):
    """Raise ConfigError with the error jsonschema.validate would have raised."""
    error = best_match(validator.iter_errors(instance))
    if error is not None:
        raise ConfigError(f"{context}: {error.message}")


def _load_config(path: str, require: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _parse_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    _validate(_RUN_VALIDATOR, cfg, "config schema violation")
    if require not in cfg:
        raise ConfigError(f"config must contain a {require!r} entry for this subcommand")
    return cfg


def _build_problem(problem: dict) -> tuple[LimitState, RandomVector]:
    # anything wrong with the problem definition is a config error, not a
    # numerical failure: it must exit 2 before any model call
    try:
        if "benchmark" in problem:
            if problem["benchmark"] == "waarts":
                return benchmark_waarts(), standard_normal_vector(2)
            dim = int(problem.get("dimension", 2))
            return benchmark_linear(problem["beta0"], dimension=dim), standard_normal_vector(dim)
        margs = tuple(Marginal.from_dict(m) for m in problem["marginals"])
        corr = problem.get("correlation")
        rv = RandomVector(margs, None if corr is None else np.asarray(corr, dtype=float))
        ls = limit_state_from_expression(
            problem["expression"], rv.dimension, name=problem.get("name", "g")
        )
    except ValueError as exc:
        raise ConfigError(f"invalid problem definition: {exc}") from None
    return ls, rv


def _apply_overrides(method: dict, overrides: list[str]) -> dict:
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
    _validate(_METHOD_VALIDATOR, out, "method options invalid after overrides")
    return out


_CASTS = {"integer": int, "number": float}


def _typed_options(method: dict) -> dict:
    """The method's options, each cast to the type its schema names.

    jsonschema accepts 200.0 as an "integer", so integers are cast to int
    here, once, before any option reaches a slice or a loop bound.
    """
    schema = _METHOD_OPTION_SCHEMAS.get(method["name"])
    if schema is None:
        raise ConfigError(f"unknown method {method['name']!r}")
    return {
        key: _CASTS.get(schema[key].get("type"), lambda v: v)(val)
        for key, val in method.items()
        if key != "name"
    }


def _instrumental(rv: RandomVector, spec: dict | None) -> InstrumentalDensity:
    if spec is None or spec["type"] == "input":
        return InstrumentalDensity.from_random_vector(rv)
    opts = {key: val for key, val in spec.items() if key != "type"}
    center = np.asarray(opts.pop("center"), dtype=float)
    if center.size != rv.dimension:
        raise ConfigError("instrumental center has the wrong dimension")
    return InstrumentalDensity.gaussian_centered(center, **opts)


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


def _run_method(ls: LimitState, rv: RandomVector, method: dict, seed: int) -> dict:
    """Run one configured method; options left out take the library defaults."""
    opts = _typed_options(method)
    call = _METHODS[method["name"]]
    try:
        result = call(ls, rv, seed=make_rng(seed), ledger=EvalLedger(), **opts)
    except _NUMERICAL_ERRORS:
        raise
    except ValueError as exc:  # an option the schema admits but the method rejects
        raise ConfigError(str(exc)) from None
    return result.to_dict()


def _summary_line(doc: dict) -> str:
    pf = doc.get("pf")
    beta = doc.get("beta")
    cov = doc.get("cov")
    fmt = lambda v, spec: ("nan" if v is None else format(v, spec))
    if doc.get("method") == "metais":
        calls = f"{doc['n_calls_doe']}+{doc['n_calls_corr']}"
    else:
        calls = str(doc.get("n_calls"))
    return (
        f"method={doc.get('method')} pf={fmt(pf, '.6e')} "
        f"beta={fmt(beta, '.4f')} cov={fmt(cov, '.4f')} calls={calls}"
    )


def _result_csv_rows(docs: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("method,pf,beta,cov,n_calls,status\n")
    for d in docs:
        if d.get("status") == "failed":
            # the reason already went to stderr; the cell stays an enum so
            # downstream parsers never meet free text
            buf.write(f"{d.get('method')},,,,,failed\n")
            continue
        pf = d.get("pf")
        beta = d.get("beta")
        cov = d.get("cov")
        cell = lambda v, spec: "" if v is None else format(v, spec)
        buf.write(
            f"{d['method']},{cell(pf, '.10e')},{cell(beta, '.8f')},"
            f"{cell(cov, '.8f')},{d.get('n_calls')},ok\n"
        )
    return buf.getvalue()


def _resolve_output(cfg: dict, args) -> tuple[str | None, str]:
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
    return path, form_


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


def _resolve_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


def run(args) -> int:
    cfg = _load_config(args.config, require="method")
    method = _apply_overrides(cfg["method"], args.method_override or [])
    seed = _resolve_seed(cfg, args)
    path, form_ = _resolve_output(cfg, args)
    ls, rv = _build_problem(cfg["problem"])

    doc = _run_method(ls, rv, method, seed)
    record = {"problem": cfg["problem"], "seed": seed, "result": doc}
    if form_ == "csv":
        text = _result_csv_rows([doc])
    else:
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    _write_text(path, text)
    print(_summary_line(doc), file=sys.stderr)
    return _EXIT_OK


def compare(args) -> int:
    cfg = _load_config(args.config, require="methods")
    seed = _resolve_seed(cfg, args)
    path, _ = _resolve_output(cfg, args)
    ls, rv = _build_problem(cfg["problem"])

    docs: list[dict] = []
    failures = 0
    for i, method in enumerate(cfg["methods"]):
        method = _apply_overrides(method, args.method_override or [])
        try:
            doc = _run_method(ls, rv, method, seed + i)
        except _NUMERICAL_ERRORS as exc:
            doc = {"method": method["name"], "status": "failed", "error": str(exc)}
            failures += 1
            print(f"method {method['name']} failed: {exc}", file=sys.stderr)
        docs.append(doc)
    _write_text(path, _result_csv_rows(docs))
    return _EXIT_NUMERICAL if failures == len(docs) else _EXIT_OK


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
