"""Command-line runner: configs, outputs, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema.validators import validator_for

import reliakit
from reliakit.cli import main


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def linear_mc_config(out, n=20_000, beta0=2.0):
    return {
        "problem": {"benchmark": "linear", "beta0": beta0, "dimension": 2},
        "method": {"name": "mc", "n": n},
        "seed": 3,
        "output": {"path": out, "format": "json"},
    }


class TestRun:
    def test_mc_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "res.json")
        cfg = write_config(tmp_path, linear_mc_config(out))
        assert main(["run", "--config", cfg]) == 0
        record = json.loads(open(out).read())
        assert record["seed"] == 3
        assert record["result"]["method"] == "mc"
        assert record["result"]["n_calls"] == 20_000
        pf = record["result"]["pf"]
        assert 0.01 < pf < 0.04  # near Phi(-2)
        err = capsys.readouterr().err
        assert "pf=" in err and "mc" in err

    def test_output_is_byte_identical_across_reruns(self, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        cfg1 = write_config(tmp_path, linear_mc_config(out1), "c1.json")
        cfg2 = write_config(tmp_path, linear_mc_config(out2), "c2.json")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert open(out1).read().endswith("\n")

    def test_seed_flag_overrides_config(self, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        cfg1 = write_config(tmp_path, linear_mc_config(out1), "c1.json")
        cfg2 = write_config(tmp_path, linear_mc_config(out2), "c2.json")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2, "--seed", "99"]) == 0
        a = json.loads(open(out1).read())
        b = json.loads(open(out2).read())
        assert b["seed"] == 99
        assert a["result"]["pf"] != b["result"]["pf"]

    def test_stdout_when_no_output_configured(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "mc", "n": 5000},
                "seed": 1,
            },
        )
        assert main(["run", "--config", cfg]) == 0
        outx = capsys.readouterr().out
        record = json.loads(outx)
        assert record["result"]["method"] == "mc"

    def test_method_override_changes_sample_size(self, tmp_path):
        out = str(tmp_path / "r.json")
        cfg = write_config(tmp_path, linear_mc_config(out, n=5000))
        assert main(["run", "--config", cfg, "--method-override", "n=12000"]) == 0
        record = json.loads(open(out).read())
        assert record["result"]["n_calls"] == 12000

    def test_bad_override_rejected(self, tmp_path):
        out = str(tmp_path / "r.json")
        cfg = write_config(tmp_path, linear_mc_config(out))
        assert main(["run", "--config", cfg, "--method-override", "n=-5"]) == 2
        assert main(["run", "--config", cfg, "--method-override", "bogus"]) == 2

    def test_non_json_override_is_checked_as_a_string(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        cfg = write_config(tmp_path, linear_mc_config(out))
        assert main(["run", "--config", cfg, "--method-override", "n=abc"]) == 2
        assert "'n': 'abc'" in capsys.readouterr().err

    def test_expression_problem(self, tmp_path):
        out = str(tmp_path / "r.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "expression": "b - x1",
                    "name": "shifted",
                    "marginals": [{"family": "gaussian", "params": [0.0, 1.0]}],
                },
                "method": {"name": "form"},
                "seed": 0,
                "output": {"path": out},
            },
        )
        # undeclared parameter b must be rejected at problem build time
        assert main(["run", "--config", cfg]) == 2

    def test_expression_form_beta(self, tmp_path):
        out = str(tmp_path / "r.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "expression": "2.5 - x1",
                    "marginals": [{"family": "gaussian", "params": [0.0, 1.0]}],
                },
                "method": {"name": "form"},
                "seed": 0,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        record = json.loads(open(out).read())
        assert record["result"]["beta"] == pytest.approx(2.5, abs=1e-6)

    def test_waarts_fosm_fails_numerically(self, tmp_path):
        # degenerate gradient at the origin: exit 3, not a crash
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "fosm"},
                "seed": 0,
            },
        )
        assert main(["run", "--config", cfg]) == 3


class TestModelErrors:
    def expression_config(self, tmp_path, expression):
        return write_config(
            tmp_path,
            {
                "problem": {
                    "expression": expression,
                    "marginals": [{"family": "gaussian", "params": [0.0, 1.0]}],
                },
                "method": {"name": "mc", "n": 1000},
                "seed": 0,
            },
        )

    def test_evaluator_error_exits_three(self, tmp_path, capsys):
        cfg = self.expression_config(tmp_path, "log(x1) + 3")
        assert main(["run", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_huge_integer_power_overflows_instead_of_hanging(self, tmp_path):
        cfg = self.expression_config(tmp_path, "x1 + 9**9**9")
        env = dict(os.environ, PYTHONPATH=str(Path(reliakit.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "reliakit.cli", "run", "--config", cfg],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 3, proc.stderr

    def test_complex_value_exits_three(self, tmp_path, capsys):
        # a gaussian x1 below 5 gives a negative base to a fractional power
        cfg = self.expression_config(tmp_path, "(x1 - 5)^0.5 + 1")
        assert main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "no real value" in err


class TestConfigValidation:
    def test_schemas_are_valid(self):
        # the CLI builds its validators once without checking the schemas
        for schema in (reliakit.cli._RUN_SCHEMA, reliakit.cli._METHOD_SCHEMA):
            validator_for(schema).check_schema(schema)

    def test_missing_file(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2

    def test_unknown_method(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "sorm"},
            },
        )
        assert main(["run", "--config", cfg]) == 2

    def test_out_of_range_option(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "mc", "n": 0},
            },
        )
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_option_key(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "mc", "samples": 100},
            },
        )
        assert main(["run", "--config", cfg]) == 2

    def test_run_requires_method_entry(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"benchmark": "waarts"}})
        assert main(["run", "--config", cfg]) == 2

    def test_compare_requires_methods_entry(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "mc", "n": 100},
            },
        )
        assert main(["compare", "--config", cfg]) == 2

    def test_no_output_file_written_on_config_error(self, tmp_path):
        out = tmp_path / "should_not_exist.json"
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "mc", "n": 0},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--config", cfg]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_missing_output_directory(self, tmp_path, capsys, no_model_calls, command, via):
        out = str(tmp_path / "missing" / "out.json")
        cfg = {"problem": {"benchmark": "waarts"}, "seed": 0}
        if command == "run":
            cfg["method"] = {"name": "mc", "n": 100}
        else:
            cfg["methods"] = [{"name": "mc", "n": 100}]
        args = [command, "--config"]
        if via == "config":
            cfg["output"] = {"path": out}
            args.append(write_config(tmp_path, cfg))
        else:
            args += [write_config(tmp_path, cfg), "--output", out]
        assert main(args) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_compare_checks_every_override_before_any_call(self, tmp_path, capsys, ledgers):
        # n is an mc option, not a form one: the override fails on the
        # second method, before the first one has run
        methods = [{"name": "mc", "n": 100}, {"name": "form"}]
        cfg = write_config(tmp_path, {"problem": {"benchmark": "waarts"}, "methods": methods})
        assert main(["compare", "--config", cfg, "--method-override", "n=200"]) == 2
        assert "method options invalid after overrides" in capsys.readouterr().err
        assert ledgers == []

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, linear_mc_config(str(tmp_path), n=100))
        assert main(["run", "--config", cfg]) == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method",
        [{"name": "ak", "budget": 5}, {"name": "metais", "budget": 3}],
        ids=["ak", "metais"],
    )
    def test_budget_below_initial_design_exits_two(self, tmp_path, capsys, ledgers, method):
        # the schema admits the budget; the method rejects it before any call
        cfg = write_config(tmp_path, {"problem": {"benchmark": "waarts"}, "method": method})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: budget")
        assert "below the initial design size" in err
        assert "Traceback" not in err
        assert [ledger.count for ledger in ledgers] == [0]

    def test_qrs_design_below_coefficient_count_exits_two(self, tmp_path, capsys, ledgers):
        # 3 points cannot fit the 6 quadratic coefficients in 2-D: a config
        # error before the design is drawn, not a failed fit after 3 calls
        method = {"name": "qrs", "n_design": 3}
        cfg = write_config(tmp_path, {"problem": {"benchmark": "waarts"}, "method": method})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert [ledger.count for ledger in ledgers] == [0]

    @staticmethod
    def run_counting_calls(*cfgs):
        """Run each config with ``reliakit run`` in one child interpreter under a
        timeout; return its exit code, stderr and ledger counts, per config."""
        script = "\n".join(
            [
                "import contextlib, io, json, sys, traceback",
                "from reliakit import cli",
                "ledgers = []",
                "class RecordingLedger(cli.EvalLedger):",
                "    def __init__(self):",
                "        super().__init__()",
                "        ledgers.append(self)",
                "cli.EvalLedger = RecordingLedger",
                "runs = []",
                "for path in sys.argv[1:]:",
                "    ledgers.clear()",
                "    out, err = io.StringIO(), io.StringIO()",
                "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
                "        try:",
                "            code = cli.main(['run', '--config', path])",
                "        except Exception:",
                "            code = None",
                "            traceback.print_exc()",
                "    runs.append((code, err.getvalue(), [ledger.count for ledger in ledgers]))",
                "print(json.dumps(runs))",
            ]
        )
        env = dict(os.environ, PYTHONPATH=str(Path(reliakit.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *cfgs], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_oversized_pce_basis_exits_two_before_any_call(self, tmp_path):
        # degree 20 in 10 inputs is 30,045,015 basis terms: listing them alone
        # takes minutes, so the run goes to a subprocess under a timeout
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "expression": "+".join(f"x{i}" for i in range(1, 11)),
                    "marginals": [{"family": "gaussian", "params": [0.0, 1.0]}] * 10,
                },
                "method": {"name": "pce", "degree": 20},
            },
        )
        [(code, err, calls)] = self.run_counting_calls(cfg)
        assert code == 2, err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert calls == [0]

    PAST_THE_CAP = [
        ("mc", "n"),
        ("is", "n"),
        ("qrs", "n_design"),
        ("qrs", "n_surrogate"),
        ("pce", "n_surrogate"),
        ("ak", "n_pool"),
        ("ak", "n_bounds"),
        ("metais", "n_epsilon"),
        ("metais", "n_corr"),
        ("metais", "n_bounds"),
    ]

    @pytest.fixture(scope="class")
    def past_the_cap_runs(self, tmp_path_factory):
        """Every PAST_THE_CAP config, one row past the cap, run in one child."""
        tmp = tmp_path_factory.mktemp("past_the_cap")
        cfgs = [
            write_config(
                tmp,
                {"problem": {"benchmark": "waarts"}, "method": {"name": method, option: 10**9 + 1}},
                name=f"{method}_{option}.json",
            )
            for method, option in self.PAST_THE_CAP
        ]
        return dict(zip(self.PAST_THE_CAP, self.run_counting_calls(*cfgs)))

    @pytest.mark.parametrize("method, option", PAST_THE_CAP)
    def test_sample_size_past_the_cap_exits_two_before_any_call(
        self, past_the_cap_runs, method, option
    ):
        # one row past the cap: the schema refuses a run that would take
        # days, before a ledger exists, so no model call is made
        code, err, calls = past_the_cap_runs[method, option]
        assert code == 2, err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize(
        "expression",
        [
            "+".join(["x1"] * 2_000),  # RecursionError while compiling
            "+".join(["x1"] * 20_000),  # RecursionError while parsing
            "-" * 100_000 + "x1",  # MemoryError while parsing
        ],
        ids=["compile_recursion", "parse_recursion", "parse_memory"],
    )
    def test_oversized_expression_exits_two(self, tmp_path, capsys, expression):
        out = tmp_path / "out.json"
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "expression": expression,
                    "marginals": [{"family": "gaussian", "params": [0.0, 1.0]}],
                },
                "method": {"name": "mc", "n": 100},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_marginal_params_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "expression": "1 - x1",
                    "marginals": [{"family": "gaussian", "params": [0.0, -1.0]}],
                },
                "method": {"name": "mc", "n": 100},
            },
        )
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "marginal, message",
        [
            ({"family": "weibull", "params": [1.0, 2.0]}, "unknown marginal family 'weibull'"),
            ({"family": "gaussian", "params": [0.0]}, "gaussian marginal needs (mean, std)"),
            ({"family": "beta", "params": [2.0, 2.0]}, "beta marginal needs (alpha, beta"),
            ({"family": "uniform", "params": [0.0, 1.0, 2.0, 3.0, 4.0]}, "uniform marginal needs"),
        ],
        ids=["unknown_family", "too_few", "beta_without_bounds", "too_many"],
    )
    def test_marginal_checks_exit_two_before_any_model_call(
        self, tmp_path, capsys, ledgers, no_model_calls, marginal, message
    ):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"expression": "1 - x1", "marginals": [marginal]},
                "methods": [{"name": "mc", "n": 100}, {"name": "form"}],
            },
        )
        assert main(["compare", "--config", cfg]) == 2
        assert ledgers == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.fixture
def ledgers(monkeypatch):
    """Every ledger the CLI creates, in order."""
    made = []

    class RecordingLedger(reliakit.EvalLedger):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(reliakit.cli, "EvalLedger", RecordingLedger)
    return made


@pytest.fixture
def no_model_calls(monkeypatch):
    """Make every limit state the CLI builds fail the test when evaluated."""

    def fail(xs):
        raise AssertionError("the model was called")

    def failing(dimension):
        return reliakit.LimitState(dimension, vector_evaluator=fail)

    monkeypatch.setattr(reliakit.cli, "benchmark_waarts", lambda: failing(2))
    monkeypatch.setattr(
        reliakit.cli, "limit_state_from_expression", lambda expr, dim, **kw: failing(dim)
    )


class TestNonFiniteNumbers:
    # json and jsonschema accept NaN, Infinity and 1e999; each must exit 2
    # before the model sees a point, and write nothing

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_override_rejected(self, tmp_path, capsys, no_model_calls, value):
        cfg = write_config(
            tmp_path, {"problem": {"benchmark": "waarts"}, "method": {"name": "metais"}, "seed": 0}
        )
        assert main(["run", "--config", cfg, "--method-override", f"k={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    @pytest.mark.parametrize(
        "marginal",
        [
            {"family": "gaussian", "params": [0.0, math.nan]},
            {"family": "uniform", "params": [0.0, math.inf]},
            {"family": "lognormal", "params": [-math.inf, 0.2]},
        ],
    )
    def test_marginal_rejected(self, tmp_path, capsys, no_model_calls, marginal):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"expression": "3 - x1", "marginals": [marginal]},
                "method": {"name": "form"},
                "seed": 0,
            },
        )
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err


class TestCompare:
    def test_two_methods_csv(self, tmp_path):
        out = str(tmp_path / "cmp.csv")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "methods": [
                    {"name": "mc", "n": 30_000},
                    {"name": "form"},
                ],
                "seed": 5,
                "output": {"path": out, "format": "csv"},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["method"] for r in rows] == ["mc", "form"]
        assert all(r["status"] == "ok" for r in rows)
        assert float(rows[1]["beta"]) == pytest.approx(2.0, abs=1e-6)
        mc_pf = float(rows[0]["pf"])
        assert 0.015 < mc_pf < 0.035

    def test_header_layout(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 1.0, "dimension": 1},
                "methods": [{"name": "mc", "n": 2000}],
                "seed": 0,
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        text = capsys.readouterr().out
        header = text.splitlines()[0]
        assert header == "method,pf,beta,cov,n_calls,status"

    def test_partial_failure_keeps_exit_zero(self, tmp_path):
        out = str(tmp_path / "cmp.csv")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "methods": [
                    {"name": "fosm"},
                    {"name": "mc", "n": 50_000},
                ],
                "seed": 2,
                "output": {"path": out, "format": "csv"},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["status"] == "failed"
        assert rows[1]["status"] == "ok"

    def test_all_failures_exit_three(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "methods": [{"name": "fosm"}],
                "seed": 2,
            },
        )
        assert main(["compare", "--config", cfg]) == 3

    def test_per_method_seed_offsets(self, tmp_path):
        # two identical mc entries must not produce identical estimates
        out = str(tmp_path / "cmp.csv")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 1.5, "dimension": 2},
                "methods": [
                    {"name": "mc", "n": 20_000},
                    {"name": "mc", "n": 20_000},
                ],
                "seed": 7,
                "output": {"path": out, "format": "csv"},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["pf"] != rows[1]["pf"]


LIBRARY_ERRORS = [
    cls
    for cls in vars(reliakit.errors).values()
    if isinstance(cls, type) and cls.__module__ == "reliakit.errors"
]


class TestExitCodes:
    def raise_from_run_method(self, monkeypatch, exc):
        def run_method(*args, **kwargs):
            raise exc

        monkeypatch.setattr(reliakit.cli, "_run_method", run_method)

    def test_every_library_error_derives_from_the_base(self):
        assert len(LIBRARY_ERRORS) > 1
        for cls in LIBRARY_ERRORS:
            assert issubclass(cls, reliakit.ReliakitError), cls.__name__

    @pytest.mark.parametrize("cls", LIBRARY_ERRORS + [MemoryError], ids=lambda cls: cls.__name__)
    def test_library_error_exits_three_and_fails_its_compare_row(
        self, tmp_path, monkeypatch, cls
    ):
        self.raise_from_run_method(monkeypatch, cls("injected"))
        cfg = write_config(tmp_path, linear_mc_config(str(tmp_path / "res.json")))
        assert main(["run", "--config", cfg]) == 3
        out = str(tmp_path / "cmp.csv")
        cmp_cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "methods": [{"name": "mc", "n": 1000}],
                "seed": 0,
                "output": {"path": out, "format": "csv"},
            },
            "cmp.json",
        )
        assert main(["compare", "--config", cmp_cfg]) == 3
        rows = list(csv.DictReader(open(out)))
        assert [r["status"] for r in rows] == ["failed"]

    def test_config_error_still_exits_two(self, tmp_path, monkeypatch):
        self.raise_from_run_method(monkeypatch, reliakit.cli.ConfigError("injected"))
        cfg = write_config(tmp_path, linear_mc_config(str(tmp_path / "res.json")))
        assert main(["run", "--config", cfg]) == 2


# Each CLI method entry on the 2-D linear benchmark, and the library function
# it stands for; the entry's options are that function's parameters.
PARITY_CASES = {
    "mc": ("estimate_mc", {"name": "mc", "n": 2000}),
    "is": ("estimate_is", {"name": "is", "n": 2000}),
    "is_gaussian_centered": (
        "estimate_is",
        {"name": "is", "n": 2000, "instrumental": {"type": "gaussian_centered", "center": [1, 1]}},
    ),
    "fosm": ("cornell_index", {"name": "fosm"}),
    "form": ("form", {"name": "form", "max_iter": 50}),
    "qrs": ("qrs_estimate", {"name": "qrs", "n_surrogate": 20_000}),
    "pce": ("pce_estimate", {"name": "pce", "degree": 2, "n_surrogate": 20_000}),
    "pce_target_error": (
        "pce_estimate",
        {"name": "pce", "target_error": 1e-3, "p_max": 3, "n_surrogate": 20_000},
    ),
    "ak": ("ak_estimate", {"name": "ak", "n_pool": 2000, "budget": 20, "n_bounds": 20_000}),
    "metais": (
        "metais_estimate",
        {"name": "metais", "n_epsilon": 20_000, "n_corr": 30, "budget": 20, "n_bounds": 5000,
         "n_chain": 100},
    ),
}


class TestDispatch:
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_each_method_is_one_library_call(self, case):
        function, method = PARITY_CASES[case]
        ls, rv = reliakit.benchmark_linear(2.0), reliakit.standard_normal_vector(2)
        opts = {key: val for key, val in method.items() if key != "name"}
        call = getattr(reliakit, function)
        ledger = reliakit.EvalLedger()
        if function == "estimate_is":
            spec = opts.pop("instrumental", {"type": "input"})
            density = (
                reliakit.InstrumentalDensity.gaussian_centered(spec["center"])
                if spec["type"] == "gaussian_centered"
                else reliakit.InstrumentalDensity.from_random_vector(rv)
            )
            want = call(ls, density, rv.joint_pdf, seed=5, ledger=ledger, **opts)
        elif function in ("cornell_index", "form"):
            want = call(ls, rv, ledger=ledger, **opts)
        else:
            want = call(ls, rv, seed=5, ledger=ledger, **opts)
        doc = want.to_dict()
        assert reliakit.cli._run_method(ls, rv, method, 5) == doc
        assert doc["n_calls"] == ledger.count


class TestEnvironment:
    def test_output_dir_env_applies_to_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELIAKIT_OUTPUT_DIR", str(tmp_path / "outs"))
        (tmp_path / "outs").mkdir()
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "mc", "n": 2000},
                "seed": 0,
                "output": {"path": "rel.json"},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "outs" / "rel.json").exists()

    def test_csv_suffix_forces_csv(self, tmp_path):
        out = str(tmp_path / "res.csv")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "mc", "n": 2000},
                "seed": 0,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        first = open(out).read().splitlines()[0]
        assert first.startswith("method,")


class TestSurrogateMethods:
    def test_qrs_on_linear_benchmark(self, tmp_path):
        out = str(tmp_path / "q.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "qrs", "n_surrogate": 200_000},
                "seed": 1,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        record = json.loads(open(out).read())
        pf = record["result"]["pf"]
        assert pf == pytest.approx(float(0.0227501), rel=0.1)
        # true-model cost is only the design, not the surrogate sweep
        assert record["result"]["n_calls"] < 100

    def test_qrs_design_at_coefficient_count_has_no_loo_error(self, tmp_path):
        # 6 points interpolate the 6 quadratic coefficients in 2-D: every
        # leverage is 1, so the leave-one-out error is undefined
        out = str(tmp_path / "q.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "waarts"},
                "method": {"name": "qrs", "n_design": 6, "n_surrogate": 10_000},
                "seed": 1,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        fit = json.loads(open(out).read())["result"]["extras"]["fit"]
        assert fit["loo_undefined"] is True
        assert fit["loo_error"] is None

    def test_pce_fixed_degree(self, tmp_path):
        out = str(tmp_path / "p.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "pce", "degree": 2, "n_surrogate": 200_000},
                "seed": 1,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        record = json.loads(open(out).read())
        assert record["result"]["pf"] == pytest.approx(0.0227501, rel=0.1)

    def test_metais_summary_reports_split_cost(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {
                    "name": "metais",
                    "n_epsilon": 20_000,
                    "n_corr": 40,
                    "budget": 30,
                    "n_bounds": 10_000,
                    "n_chain": 100,
                },
                "seed": 4,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        err = capsys.readouterr().err
        record = json.loads(open(out).read())
        res = record["result"]
        # the summary line prints the total; the JSON keeps the doe+corr split
        assert err.split()[-1] == f"calls={res['n_calls']}"
        assert res["n_calls"] == res["n_calls_doe"] + res["n_calls_corr"]
        assert res["pf"] == pytest.approx(0.0227501, rel=0.5)
        trace = res["extras"]["doe_trace"]
        assert trace[-1]["n_calls"] == res["n_calls_doe"]
        assert all(isinstance(e["at_bounds"], bool) for e in trace)

    def test_ak_on_linear_benchmark(self, tmp_path):
        out = str(tmp_path / "a.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "ak", "n_pool": 5000, "budget": 30, "n_bounds": 50_000},
                "seed": 7,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        res = json.loads(open(out).read())["result"]
        assert res["method"] == "ak"
        assert res["pf"] == pytest.approx(0.0227501, rel=0.15)
        assert 12 <= res["n_calls"] <= 30
        extras = res["extras"]
        assert extras["pf_lower"] <= res["pf"] <= extras["pf_upper"]
        assert extras["stop_reason"] in ("u_threshold", "budget")
        assert extras["converged"] == (extras["stop_reason"] == "u_threshold")
        assert extras["n_surrogate"] == 50_000
        assert extras["doe_trace"][-1]["n_calls"] == res["n_calls"]
        assert all(isinstance(e["at_bounds"], bool) for e in extras["doe_trace"])

    @pytest.mark.parametrize(
        "instrumental",
        [
            {"type": "input"},
            {"type": "gaussian_centered", "center": [1.4, 1.4], "std": 1.0},
        ],
        ids=["input", "gaussian_centered"],
    )
    def test_is_on_linear_benchmark(self, tmp_path, instrumental):
        out = str(tmp_path / "i.json")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {"name": "is", "n": 20_000, "instrumental": instrumental},
                "seed": 7,
                "output": {"path": out},
            },
        )
        assert main(["run", "--config", cfg]) == 0
        res = json.loads(open(out).read())["result"]
        assert res["n_calls"] == 20_000
        assert res["pf"] == pytest.approx(0.0227501, abs=5.0 * res["cov"] * res["pf"])

    def test_is_center_of_wrong_dimension_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {
                    "name": "is",
                    "instrumental": {"type": "gaussian_centered", "center": [1.4]},
                },
            },
        )
        assert main(["run", "--config", cfg]) == 2

    def test_integral_float_override_matches_integer(self, tmp_path):
        # the schema accepts 40.0 as an integer; the runner must cast it
        # before it sizes the correction sample
        cfg = write_config(
            tmp_path,
            {
                "problem": {"benchmark": "linear", "beta0": 2.0, "dimension": 2},
                "method": {
                    "name": "metais",
                    "n_epsilon": 20_000,
                    "n_corr": 30,
                    "budget": 20,
                    "n_bounds": 10_000,
                    "n_chain": 100,
                },
                "seed": 4,
            },
        )
        outs = []
        for value in ("40", "40.0"):
            out = str(tmp_path / f"m{value}.json")
            assert main(["run", "--config", cfg, "--output", out,
                         "--method-override", f"n_corr={value}"]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["result"]["n_calls_corr"] == 40
