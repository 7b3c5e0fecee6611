import json
import math
import subprocess
import sys

import pytest

from arithcap import cli
from arithcap import errors as E
from arithcap.cli import main, parse_domain, parse_map
from arithcap.config import ExperimentConfig


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            command="capacity",
            inputs={"domain": "circle(1.5)"},
            tolerances={"residual": 1e-6},
            resolution=128,
            seed=7,
        )
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="x", tolerances={"bad": 0.0})

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="x", resolution=8)


class TestParsers:
    def test_domain_shorthand(self):
        dom = parse_domain("circle(1.5)")
        assert abs(dom.curves[0](0.0) - 1.5) < 1e-15

    def test_domain_json_inline(self):
        dom = parse_domain('{"type": "circle", "params": {"radius": 1.0}, "center": [0.4, 0.0]}')
        assert dom.center == 0.4 + 0j

    def test_domain_trigpoly(self):
        spec = {
            "type": "trigpoly",
            "params": {"coeffs": {"1": [1.0, 0.0], "4": [0.025, 0.0], "-2": [0.025, 0.0]}},
            "center": [0.0, 0.0],
        }
        dom = parse_domain(json.dumps(spec))
        assert len(dom.curves) == 1

    def test_map_grammar_and_complex(self):
        m1 = parse_map("z^2 - 1/2*z")
        assert m1.coeffs == (0, -0.5, 1)
        m2 = parse_map("0,0,1j")
        assert m2.coeffs == (0, 0, 1j)


class TestCommands:
    def test_capacity(self, capsys):
        code, out = run_cli(["capacity", "--domain", "circle(1.5)"], capsys)
        assert code == 0
        data = json.loads(out)
        assert abs(data["capacity"] - 2 / 3) < 1e-6
        assert abs(data["robin"] - math.log(1.5)) < 1e-6

    def test_integerize_search(self, capsys):
        code, out = run_cli(
            ["integerize", "--poly", "x+1/2", "--top", "2", "--search"], capsys
        )
        assert code == 0
        assert json.loads(out)["M"] == 8

    def test_integerize_formula(self, capsys):
        code, out = run_cli(["integerize", "--poly", "x+1/2", "--top", "2"], capsys)
        assert json.loads(out)["M"] == 16

    def test_syntax_error_record(self, capsys):
        code, out = run_cli(["integerize", "--poly", "x^^2", "--top", "2"], capsys)
        assert code == 2
        rec = json.loads(out)
        assert rec["error"] == "PolyParseError" and rec["code"] == 2

    def test_missing_file_io_error(self, capsys):
        code, out = run_cli(
            ["capacity", "--domain", "circle(1.0)", "--config", "/nonexistent/c.json"],
            capsys,
        )
        assert code == 5
        assert json.loads(out)["code"] == 5

    def test_numeric_error_code(self, capsys):
        code, out = run_cli(
            ["patch", "--poly", "x^2 + 2", "--holes", '[{"center": [0, 0], "radius": 0.5}]',
             "--grid", "16", "--spot-samples", "16"],
            capsys,
        )
        assert code == 4
        assert json.loads(out)["error"] in ("NoMargin", "InsufficientMargin")

    @pytest.mark.parametrize(
        "args",
        [
            ["capacity", "--domain", "circle()"],
            ["capacity", "--domain", "ellipse(1)"],
            ["capacity", "--domain", "circle(-1)"],
            ["measure", "--domain", "circle(2.0)", "--nodes", "0"],
        ],
    )
    def test_bad_input_usage_error(self, capsys, args):
        code, out = run_cli(args, capsys)
        assert code == 2
        rec = json.loads(out)
        assert rec["code"] == 2 and rec["error"] == "ValueError"

    def test_measure_csv(self, capsys):
        code, out = run_cli(
            ["measure", "--domain", "circle(2.0)", "--nodes", "16"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,y,weight"
        assert len(lines) == 17
        w = [float(l.split(",")[3]) for l in lines[1:]]
        assert abs(sum(w) - 1.0) < 1e-12

    def test_family_distinct(self, capsys):
        code, out = run_cli(
            ["family", "--p", "X - 2", "--order", "8", "--seeds", "[[1,0],[0,1],[1,1]]"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["distinct"] is True
        assert data["q_inverse"]["coeffs"][1] == "1"

    def test_overflow_both(self, capsys):
        code, out = run_cli(
            ["overflow", "--domain", "circle(1.5)", "--map", "z", "--method", "both"],
            capsys,
        )
        data = json.loads(out)
        assert data["difference"] < 1e-8

    def test_determinism_byte_identical(self, capsys):
        args = ["identity-check", "--domain", "circle(1.5)", "--map", "z^2 - 1/2*z",
                "--which", "cor36", "--random-seed", "3"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cap.json"
        code, out = run_cli(
            ["capacity", "--domain", "circle(1.0)", "--out", str(target)], capsys
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": {"domain": "circle(1.0)"}, "resolution": 64}))
        code, out = run_cli(["capacity", "--config", str(cfg), "--domain", "circle(2.0)"], capsys)
        assert code == 0
        assert abs(json.loads(out)["capacity"] - 0.5) < 1e-6

    def test_config_file_threads_key_ignored(self, capsys, tmp_path):
        # "threads" is no longer a config field; old files that hold it still run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": {"domain": "circle(1.0)"}, "threads": 4}))
        code, out = run_cli(["capacity", "--config", str(cfg)], capsys)
        assert code == 0
        assert abs(json.loads(out)["capacity"] - 1.0) < 1e-6


# The exit-code tuples cli.run used before the codes moved onto the classes.
_REFERENCE_USAGE_ERRORS = (E.PolyParseError, ValueError, KeyError, json.JSONDecodeError)
_REFERENCE_PRECONDITION_ERRORS = (
    E.NotMonic,
    E.NonzeroRemainder,
    E.NonUnitConstantTerm,
    E.NonzeroConstantTerm,
    E.NonInvertibleLinearTerm,
    E.ZeroInput,
    E.PartsMismatch,
    E.DegreeTooSmall,
    E.CenterNotZero,
    E.WrongVanishingOrder,
    E.PoleAtCenter,
    E.ConstantMap,
    E.TopCoefficientsNotIntegral,
)
_REFERENCE_NUMERIC_ERRORS = (
    E.NotFound,
    E.NoMargin,
    E.InsufficientMargin,
    E.DegreeCapExceeded,
    E.SolverIllConditioned,
    E.BoundaryZero,
    E.AllCoefficientsBelowTolerance,
    E.AsymmetricDomain,
    E.SampleSingularity,
    E.CenterOnBoundary,
    E.CertificateCheckFailed,
)


def _reference_exit_code(exc: Exception) -> int | None:
    """The code the tuples gave, checked in cli.run's old order; None for a
    class they did not list."""
    for family, code in (
        (_REFERENCE_PRECONDITION_ERRORS, 3),
        (_REFERENCE_NUMERIC_ERRORS, 4),
        (OSError, 5),
        (_REFERENCE_USAGE_ERRORS, 2),
    ):
        if isinstance(exc, family):
            return code
    return None


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _instance(cls):
    return cls("boom", 0) if issubclass(cls, E.PolyParseError) else cls("boom")


@pytest.mark.parametrize(
    "exc",
    [_instance(cls) for cls in _all_subclasses(E.ArithcapError)]
    + [ValueError("boom"), KeyError("boom"), json.JSONDecodeError("boom", "{", 0),
       FileNotFoundError("boom")],
    ids=lambda exc: type(exc).__name__,
)
def test_exit_code_by_type(monkeypatch, exc):
    def command(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "capacity", command)
    code, text = cli.run(ExperimentConfig(command="capacity"))
    want = _reference_exit_code(exc)
    assert code == (exc.exit_code if want is None else want)
    rec = json.loads(text)
    assert rec == {"error": type(exc).__name__, "message": str(exc), "code": code}



def test_series_strings_reparse():
    from fractions import Fraction

    from arithcap.cli import _series_json
    from arithcap.series import TruncSeries

    s = TruncSeries([Fraction(1, 3), 2, -5], 4)
    data = _series_json(s)
    back = TruncSeries([Fraction(c) for c in data["coeffs"]], data["order"])
    assert back == s


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arithcap.cli", "capacity", "--domain", "circle(1.0)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["capacity"] - 1.0) < 1e-6
