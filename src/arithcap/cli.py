"""The arithcap command line: one subcommand per operation family, JSON out.

Exit codes: 0 success, 2 parse/usage, 3 exact-precondition violations,
4 numeric/search failures, 5 I/O errors; a library error's code is its
class's `exit_code`.  Errors print a structured JSON record
{"error", "message", "code"} and the human message on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import errors as E
from .analytic import PolyMap, jet_cap_norm, taylor_jet
from .config import ExperimentConfig
from .curves import (
    DomainSpec,
    TrigCurve,
    circle_domain,
    conformal_image_domain,
    ellipse_domain,
    perturbed_circle_domain,
)
from .family import SeedSequence, distinctness_check, family_member, q_inverse_series
from .greens import equilibrium_measure, solve_green
from .integerize import integerizing_exponent, minimal_integerizing_exponent
from .overflow import (
    arakelov_degree,
    classical_inverse_check,
    identity_residual,
    overflow,
    degree_consistency_residual,
    symmetry_check,
)
from .parsing import parse_polynomial, poly_to_string
from .patching import PatchConfig, RegionSpec, heuristic_real_candidate, patch


# --- input parsing helpers ---------------------------------------------------------


def _parse_complex(text: str) -> complex:
    """'x,y' pair or a Python complex literal."""
    text = text.strip()
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text.replace(" ", ""))


def domain_from_dict(spec: dict) -> DomainSpec:
    kind = spec["type"]
    params = spec.get("params", {})
    center = spec.get("center")
    O = complex(center[0], center[1]) if center is not None else None
    if kind == "circle":
        cc = params.get("curve_center", [0.0, 0.0])
        return circle_domain(float(params["radius"]), complex(cc[0], cc[1]), O)
    if kind == "ellipse":
        cc = params.get("curve_center", [0.0, 0.0])
        return ellipse_domain(float(params["a"]), float(params["b"]), complex(cc[0], cc[1]), O)
    if kind == "conformal_poly_image":
        coeffs = [complex(c[0], c[1]) for c in params["coeffs"]]
        return conformal_image_domain(coeffs, O)
    if kind == "trigpoly":
        def curve(d):
            return TrigCurve({int(k): complex(v[0], v[1]) for k, v in d.items()})

        curves = [curve(params["coeffs"])] + [curve(h) for h in params.get("holes", [])]
        return DomainSpec(curves, 0j if O is None else O)
    raise ValueError(f"unknown domain type {kind!r}")


# shorthand name -> (fewest, most) arguments; None: no upper limit
_SHORTHAND_ARITY = {"circle": (1, 1), "ellipse": (2, 2), "conformal": (1, None), "perturbed": (0, 3)}


def parse_domain(text: str, center: str | None = None) -> DomainSpec:
    """Shorthand circle(r) / ellipse(a,b) / conformal(c0,c1,...) /
    perturbed(r,eps,m), inline JSON, or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{"):
        spec = json.loads(text)
    elif text.endswith(".json"):
        with open(text) as fh:
            spec = json.load(fh)
    else:
        name, _, argstr = text.partition("(")
        if not argstr.endswith(")"):
            raise ValueError(f"malformed domain shorthand {text!r}")
        args = [float(a) for a in argstr[:-1].split(",") if a.strip()]
        lo, hi = _SHORTHAND_ARITY.get(name, (0, None))
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = str(lo) if lo == hi else f"at least {lo}" if hi is None else f"{lo} to {hi}"
            raise ValueError(f"{name}() takes {want} argument(s), got {len(args)}")
        O = _parse_complex(center) if center else None
        if name == "circle":
            return circle_domain(args[0], 0j, O)
        if name == "ellipse":
            return ellipse_domain(args[0], args[1], 0j, O)
        if name == "conformal":
            return conformal_image_domain([complex(a) for a in args], O)
        if name == "perturbed":
            r = args[0] if args else 1.0
            eps = args[1] if len(args) > 1 else 0.05
            mode = args[2] if len(args) > 2 else 3
            return perturbed_circle_domain(r, eps, mode, 0j if O is None else O)
        raise ValueError(f"unknown domain shorthand {name!r}")
    dom = domain_from_dict(spec)
    if center:
        dom = DomainSpec(dom.curves, _parse_complex(center))
    return dom


def parse_map(text: str) -> PolyMap:
    """Polynomial map: the rational grammar, or comma-separated complex coeffs."""
    try:
        return PolyMap.from_rat_poly(parse_polynomial(text))
    except E.PolyParseError:
        pass
    return PolyMap([complex(c.replace(" ", "")) for c in text.split(",")])


def _json_list(spec, what: str) -> list:
    """Inline JSON or the path of a .json file, holding a list; a list already
    parsed from a --config file passes through."""
    if isinstance(spec, str) and spec.endswith(".json"):
        with open(spec) as fh:
            spec = json.load(fh)
    elif isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, list):
        raise ValueError(f"{what} must be a JSON list, got {spec!r}")
    return spec


def _json_point(v, what: str) -> complex:
    """A JSON [x, y] pair of numbers as x + iy."""
    if not (isinstance(v, list) and len(v) == 2 and all(isinstance(c, (int, float)) for c in v)):
        raise ValueError(f"{what} must be an [x, y] pair of numbers, got {v!r}")
    return complex(v[0], v[1])


def _rat_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _series_json(s) -> dict:
    return {"coeffs": [_rat_str(c) for c in s.coeffs], "order": s.order}


# --- command implementations ----------------------------------------------------------


def _cmd_capacity(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    return {
        "robin": sol.robin_c,
        "capacity": sol.capacity,
        "boundary_residual": sol.collocation_residual,
        "raw_weight_sum": sol.raw_weight_sum,
    }


def _cmd_green(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    x = _parse_complex(cfg.inputs["at"])
    return {"at": [x.real, x.imag], "green": sol.green(x)}


def _cmd_measure(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    t, z, w, _ = equilibrium_measure(sol, int(cfg.inputs.get("nodes", cfg.resolution)))
    rows = ["t,x,y,weight"]
    for tt, pt, ww in zip(t, z, w):
        rows.append(f"{float(tt)!r},{float(pt.real)!r},{float(pt.imag)!r},{float(ww)!r}")
    return "\n".join(rows) + "\n"


def _cmd_jet(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    f = parse_map(cfg.inputs["map"])
    jet = taylor_jet(f, dom, order=int(cfg.inputs.get("order", 8)))
    sol = solve_green(dom, cfg.resolution)
    return {
        "vanishing_order": jet.order,
        "coeffs": [[c.real, c.imag] for c in jet.coeffs],
        "radius": jet.radius,
        "log_cap_norm": jet_cap_norm(jet, sol),
    }


def _cmd_overflow(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    f = parse_map(cfg.inputs["map"])
    method = cfg.inputs.get("method", "both")
    out = {}
    if method in ("def", "both"):
        out["def"] = overflow(sol, f, "def")
    if method in ("energy", "both"):
        out["energy"] = overflow(sol, f, "energy")
    if method == "both":
        out["difference"] = abs(out["def"] - out["energy"])
    return out


def _cmd_identity_check(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    f = parse_map(cfg.inputs["map"])
    which = cfg.inputs["which"]
    if which == "prop35":
        return {"which": which, "residual": identity_residual(sol, f, "prop35")}
    if "at" in cfg.inputs:
        xs = [_parse_complex(cfg.inputs["at"])]
    else:
        rng = np.random.default_rng(cfg.seed)
        rad = 0.4 * dom.boundary_distance(dom.center)
        xs = dom.center + rad * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
    worst = max(identity_residual(sol, f, which, x=complex(x)) for x in xs)
    return {"which": which, "max_residual": worst, "points": len(xs)}


def _cmd_classical_check(cfg: ExperimentConfig):
    res = classical_inverse_check(
        float(cfg.inputs["radius"]),
        samples=int(cfg.inputs.get("samples", 20)),
        resolution=cfg.resolution,
    )
    return {
        "max_residual": res.max_residual,
        "V_infinity": res.log_capacity,
        "robin_constant": res.robin_constant,
    }


def _cmd_symmetry_check(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    f = parse_map(cfg.inputs["map"])
    dev = symmetry_check(f, dom, samples=int(cfg.inputs.get("samples", 256)))
    return {"max_deviation": dev, "symmetric": dev < float(cfg.tolerances.get("symmetry", 1e-10))}


def _cmd_pseudoconvex(cfg: ExperimentConfig):
    dom = parse_domain(cfg.inputs["domain"], cfg.inputs.get("center"))
    sol = solve_green(dom, cfg.resolution)
    c1 = _parse_complex(cfg.inputs.get("c1", "1,0"))
    jet = taylor_jet(PolyMap([-c1 * dom.center, c1]), dom, 4)
    res = arakelov_degree(sol, jet)
    out = {"degree": res.degree, "pseudoconvex": res.pseudoconvex}
    orders = cfg.inputs.get("check_orders")
    if orders:
        out["degree_consistency_residuals"] = {
            str(e): degree_consistency_residual(sol, int(e), c1) for e in str(orders).split(",")
        }
    return out


def _cmd_integerize(cfg: ExperimentConfig):
    f = parse_polynomial(cfg.inputs["poly"])
    N = int(cfg.inputs["top"])
    if cfg.inputs.get("search"):
        res = minimal_integerizing_exponent(f, N, cap=int(cfg.inputs.get("cap", 65536)))
    else:
        res = integerizing_exponent(f, N)
    return {
        "M": res.M,
        "k": res.k,
        "route": res.route,
        "verified": res.verified,
        "prime_exponents": {str(p): e for p, e in res.prime_exponents},
    }


def _cmd_patch(cfg: ExperimentConfig):
    m = parse_polynomial(cfg.inputs["poly"])
    holes = []
    for h in _json_list(cfg.inputs["holes"], "--holes"):
        if not (isinstance(h, dict) and isinstance(h.get("radius"), (int, float))):
            raise ValueError(f"a hole must be an object with a center and a numeric radius, got {h!r}")
        holes.append((_json_point(h.get("center"), "a hole's center"), float(h["radius"])))
    region = RegionSpec(holes)
    pconf = PatchConfig(
        grid=cfg.grid,
        max_degree=cfg.degree_cap,
        spot_samples=int(cfg.inputs.get("spot_samples", 1000)),
        seed=cfg.seed,
    )
    cert = patch(m, region, pconf)
    return {
        "p_coeffs": [str(c) for c in cert.p.coeffs],
        "degree": cert.p.degree,
        "route": cert.route,
        "greedy_steps": cert.greedy_steps,
        "exact_cert_ok": cert.exact_cert_ok,
        "reconstruction_ok": cert.reconstruction_ok,
        "params": {
            "epsilon": _rat_str(cert.params.epsilon),
            "r": _rat_str(cert.params.r),
            "R_lower": _rat_str(cert.params.R_lower),
            "k": cert.params.k,
            "N": cert.params.N,
            "M": cert.params.M,
            "d": cert.params.d,
        },
        "spot_check": {
            "num_samples": cert.spot_check.num_samples,
            "min_abs_value": cert.spot_check.min_abs_value
            if math.isfinite(cert.spot_check.min_abs_value)
            else "overflow",
            "min_log10_abs": cert.spot_check.min_log10_abs,
        },
    }


def _cmd_family(cfg: ExperimentConfig):
    p = parse_polynomial(cfg.inputs["p"]).to_int_poly()
    order = int(cfg.inputs.get("order", 16 * max(p.degree, 1)))
    if "seeds" in cfg.inputs:
        spec = _json_list(cfg.inputs["seeds"], "--seeds")
        if not all(isinstance(s, list) for s in spec):
            raise ValueError(f"--seeds must be a list of integer lists, got {spec!r}")
        seeds = [SeedSequence(s) for s in spec]
    else:
        count = int(cfg.inputs.get("count", 8))
        bound = int(cfg.inputs.get("bound", 1))
        rng = np.random.default_rng(cfg.seed)
        length = max(order // max(p.degree, 1), 1)
        seeds = [
            SeedSequence(rng.integers(-bound, bound + 1, length).tolist(), bound)
            for _ in range(count)
        ]
    members = [family_member(p, s, order) for s in seeds]
    report = distinctness_check(members)
    return {
        "q_inverse": _series_json(q_inverse_series(p, order)),
        "members": [
            {"seed": list(s.values), **_series_json(u)} for s, u in zip(seeds, members)
        ],
        "distinct": report.distinct,
        "collision": list(report.collision) if report.collision else None,
    }


def _cmd_suggest_region(cfg: ExperimentConfig):
    samples = [_json_point(s, "a sample") for s in _json_list(cfg.inputs["samples"], "--samples")]
    cand = heuristic_real_candidate(samples, int(cfg.inputs.get("degree_budget", 8)))
    emp = min(abs(complex(cand(w))) for w in samples)
    return {"found": True, "poly": poly_to_string(cand), "empirical_min": emp}


_COMMANDS = {
    "capacity": _cmd_capacity,
    "green": _cmd_green,
    "measure": _cmd_measure,
    "jet": _cmd_jet,
    "overflow": _cmd_overflow,
    "identity-check": _cmd_identity_check,
    "classical-check": _cmd_classical_check,
    "symmetry-check": _cmd_symmetry_check,
    "pseudoconvex": _cmd_pseudoconvex,
    "integerize": _cmd_integerize,
    "patch": _cmd_patch,
    "family": _cmd_family,
    "suggest-region": _cmd_suggest_region,
}


def run(cfg: ExperimentConfig) -> tuple[int, str]:
    """Dispatch a config to its command; returns (exit code, artifact text)."""
    try:
        payload = _COMMANDS[cfg.command](cfg)
    except E.ArithcapError as exc:
        return exc.exit_code, _error_record(exc, exc.exit_code)
    except OSError as exc:
        return 5, _error_record(exc, 5)
    except (ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        return 2, _error_record(exc, 2)
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    return 0, text


def _error_record(exc: Exception, code: int) -> str:
    rec = {"error": type(exc).__name__, "message": str(exc), "code": code}
    return json.dumps(rec, sort_keys=True) + "\n"


# --- argument wiring --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arithcap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, domain=True):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--random-seed", type=int, default=None, dest="seed")
        if domain:
            p.add_argument("--domain", required=False)
            p.add_argument("--center", default=None, help="O as 'x,y'")

    p = sub.add_parser("capacity")
    common(p)
    p = sub.add_parser("green")
    common(p)
    p.add_argument("--at", required=True, help="evaluation point 'x,y'")
    p = sub.add_parser("measure")
    common(p)
    p.add_argument("--nodes", type=int, default=None)
    p = sub.add_parser("jet")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--order", type=int, default=8)
    p = sub.add_parser("overflow")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--method", choices=["def", "energy", "both"], default="both")
    p = sub.add_parser("identity-check")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--which", choices=["prop34", "prop35", "cor36"], required=True)
    p.add_argument("--at", default=None)
    p = sub.add_parser("classical-check")
    common(p, domain=False)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, default=20)
    p = sub.add_parser("symmetry-check")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--samples", type=int, default=256)
    p = sub.add_parser("pseudoconvex")
    common(p)
    p.add_argument("--c1", default="1,0")
    p.add_argument("--check-orders", default=None, dest="check_orders")
    p = sub.add_parser("integerize")
    common(p, domain=False)
    p.add_argument("--poly", required=True)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--search", action="store_true")
    p.add_argument("--cap", type=int, default=65536)
    p = sub.add_parser("patch")
    common(p, domain=False)
    p.add_argument("--poly", required=True)
    p.add_argument("--holes", required=True, help="holes.json or inline JSON")
    p.add_argument("--max-degree", type=int, default=8192, dest="degree_cap")
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--spot-samples", type=int, default=1000, dest="spot_samples")
    p = sub.add_parser("family")
    common(p, domain=False)
    p.add_argument("--p", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--bound", type=int, default=1)
    p = sub.add_parser("suggest-region")
    common(p, domain=False)
    p.add_argument("--samples", required=True, help="samples.json or inline JSON")
    p.add_argument("--degree-budget", type=int, default=8, dest="degree_budget")
    return ap


_INPUT_KEYS = (
    "domain", "center", "at", "map", "method", "which", "radius", "samples",
    "c1", "check_orders", "poly", "top", "search", "cap", "holes", "p",
    "order", "seeds", "count", "bound", "nodes", "spot_samples", "degree_budget",
)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge a --config file under the flags; a malformed file is a ValueError."""
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.loads(fh.read())
    if not isinstance(base, dict):
        raise ValueError("--config must hold a JSON object")
    try:
        inputs = dict(base.get("inputs", {}))
        for key in _INPUT_KEYS:
            val = getattr(args, key, None)
            if val is not None and val is not False:
                inputs[key] = val
        return ExperimentConfig(
            command=args.command,
            inputs=inputs,
            tolerances=dict(base.get("tolerances", {})),
            resolution=args.resolution or base.get("resolution", 256),
            grid=getattr(args, "grid", None) or base.get("grid", 48),
            degree_cap=getattr(args, "degree_cap", None) or base.get("degree_cap", 8192),
            out=args.out or base.get("out"),
            seed=args.seed if args.seed is not None else base.get("seed", 0),
        )
    except TypeError as exc:  # e.g. "inputs": 5, or a non-numeric resolution
        raise ValueError(f"malformed --config: {exc}") from exc


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        cfg = config_from_args(args)
    except (E.PolyParseError, ValueError, json.JSONDecodeError) as exc:
        sys.stdout.write(_error_record(exc, 2))
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stdout.write(_error_record(exc, 5))
        sys.stderr.write(f"error: {exc}\n")
        return 5
    code, text = run(cfg)
    sys.stdout.write(text)
    if code != 0:
        sys.stderr.write(f"error: {text}")
    return code


if __name__ == "__main__":
    sys.exit(main())
