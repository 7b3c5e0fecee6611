"""The benchmark's four workloads: their inputs, the operations of one pass, and
the check of every operation's output against the values recorded at the
commit that introduced the benchmark (reference.json).

Operations call arithcap through module attributes looked up at call time
(`patching.patch`, `overflow_mod.overflow`, `greens.solve_green`), so the
wrappers tracing.py installs are the ones that run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from arithcap.analytic import PolyMap
from arithcap.curves import circle_domain, conformal_image_domain, perturbed_circle_domain
from arithcap.errors import NoMargin
from arithcap.parsing import parse_polynomial

# `import arithcap.overflow as m` would bind the function: the package's
# __init__ rebinds the name `overflow`.
patching = importlib.import_module("arithcap.patching")
greens = importlib.import_module("arithcap.greens")
overflow_mod = importlib.import_module("arithcap.overflow")

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# Acceptance criterion 6: the two overflow routes agree to 1e-4.
ROUTE_TOLERANCE = 1e-4
RESOLUTION = 256
N_QUAD = 2048

CUBIC = [0, 0.3, -0.2, 1]  # z^3 - 0.2 z^2 + 0.3 z
DOMAINS = {
    "disk1.5": lambda: circle_domain(1.5),
    "disk0.8": lambda: circle_domain(0.8),
    "pert5pct": lambda: perturbed_circle_domain(1.0, 0.05, 3),
    "conformal": lambda: conformal_image_domain([0, 1.3, 0.2]),
}
MAPS = {"z^2": [0, 0, 1], "z(z-1/2)": [0, -0.5, 1], "cubic": CUBIC}
OVERFLOW_CASES = [
    ("disk1.5", "z^2"),
    ("disk0.8", "z(z-1/2)"),
    ("pert5pct", "z(z-1/2)"),
    ("pert5pct", "cubic"),
    ("conformal", "z^2"),
    ("conformal", "cubic"),
]


@dataclass
class Outcome:
    ok: bool
    result: Any = None
    gap: float | None = None  # |value - other route's reference value|, overflow only
    detail: str = ""


@dataclass
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Work:
    """What set-up hands to the timed loop."""

    ops: list[Operation]
    collocation_residual: float = 0.0  # worst Green solve, 0 when nothing is solved


def coeffs_digest(coeffs) -> str:
    """SHA-256 of the decimal coefficient list, constant term first."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def _check_flagship(cert) -> Outcome:
    if isinstance(cert, BaseException):
        return Outcome(False, cert, detail=repr(cert))
    ref = REFERENCE["patch-flagship"]
    p = cert.params
    problems = [
        name
        for name, ok in [
            ("route", cert.route == "patched"),
            ("degree", cert.p.degree == ref["degree"]),
            ("(M, k, N)", (p.M, p.k, p.N) == (ref["M"], ref["k"], ref["N"])),
            ("exact_cert_ok", cert.exact_cert_ok),
            ("reconstruction_ok", cert.reconstruction_ok),
            ("min log10|p| > log10 2", cert.spot_check.min_log10_abs > math.log10(2)),
            ("coefficient digest", coeffs_digest(cert.p.coeffs) == ref["coeffs_sha256"]),
        ]
        if not ok
    ]
    return Outcome(not problems, cert, detail="failed: " + ", ".join(problems) if problems else "")


def _check_infeasible(outcome) -> Outcome:
    if isinstance(outcome, NoMargin):
        return Outcome(True, outcome)
    return Outcome(False, outcome, detail=f"expected NoMargin, got {outcome!r}")


def _patch_work(hole_radius: float, check, seed: int) -> Work:
    m = parse_polynomial("x - 1/2")
    region = patching.RegionSpec.disk(hole_radius)
    config = patching.PatchConfig(grid=48, spot_samples=1000, seed=seed, threads=1)
    op = Operation("patch", lambda: patching.patch(m, region, config), check)
    return Work([op])


def certificate_counts(outcomes: list[Outcome]) -> dict:
    """Exact counts from the patch certificates among the outcomes, summed."""
    certs = [o.result for o in outcomes if isinstance(o.result, patching.PatchCertificate)]
    return {
        "patching.greedy_steps": sum(c.greedy_steps for c in certs),
        "patching.spot_points": sum(c.spot_check.num_samples for c in certs),
    }


def patch_flagship(seed: int) -> Work:
    """x - 1/2 outside the disk of radius 9: degree-2048 output, M = 1024."""
    return _patch_work(9.0, _check_flagship, seed)


def patch_infeasible(seed: int) -> Work:
    """x - 1/2 outside the disk of radius 0.1: the grid doubles to 768, then NoMargin."""
    return _patch_work(0.1, _check_infeasible, seed)


def _overflow_work(route: str) -> Work:
    """The six (domain, map) cases; fixed inputs, so the seed changes nothing."""
    other = {"def": "energy", "energy": "def"}[route]
    sols = {name: greens.solve_green(make(), RESOLUTION) for name, make in DOMAINS.items()}
    ops = []
    for dname, mname in OVERFLOW_CASES:
        case = f"{dname}*{mname}"
        sol, f = sols[dname], PolyMap(MAPS[mname])
        expected = REFERENCE["overflow"][case][other]

        def run(sol=sol, f=f):
            return overflow_mod.overflow(sol, f, route, n_quad=N_QUAD)

        def check(value, expected=expected):
            if isinstance(value, BaseException):
                return Outcome(False, value, detail=repr(value))
            gap = abs(value - expected)
            ok = gap <= ROUTE_TOLERANCE
            return Outcome(ok, value, gap, "" if ok else f"route gap {gap:.3g} > {ROUTE_TOLERANCE:g}")

        ops.append(Operation(case, run, check))
    residual = max(s.collocation_residual for s in sols.values())
    return Work(ops, collocation_residual=residual)


WORKLOADS: dict[str, Callable[[int], Work]] = {
    "patch-flagship": patch_flagship,
    "patch-infeasible": patch_infeasible,
    "overflow-def": lambda seed: _overflow_work("def"),
    "overflow-energy": lambda seed: _overflow_work("energy"),
}
