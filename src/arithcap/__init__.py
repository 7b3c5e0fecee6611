"""arithcap: exact polynomial patching and planar equilibrium potential theory.

Subpackage map:

- polys, series, padic: exact arithmetic over Z and Q
- integerize: integerizing exponents for powers of monic rational polynomials
- patching: certified conversion of rational polynomials large on the
  complement of a bounded open set into monic integer ones
- curves, greens, analytic, overflow: planar equilibrium Green's functions,
  equilibrium measures, pushforward and overflow identities
- family: continuum families of integer power series sum a_n / q(X)^n
- cli: the arithcap command-line front end
"""

from .polys import IntPoly, RatPoly, poly_div_exact, poly_pow, reverse_unit_poly
from .series import (
    TruncSeries,
    series_comp_inverse,
    series_compose,
    series_reciprocal,
)
from .padic import vp_factorial, vp_integer, vp_multinomial
from .integerize import (
    IntegerizationResult,
    integerizing_exponent,
    minimal_integerizing_exponent,
    verify_top_integrality,
)
from .parsing import parse_polynomial, poly_to_string
from .patching import (
    PatchCertificate,
    PatchConfig,
    PatchParams,
    RegionSpec,
    certified_lower_bound,
    choose_parameters,
    clear_fractional_parts,
    heuristic_real_candidate,
    patch,
    rationalize,
)
from .curves import (
    DomainSpec,
    TrigCurve,
    circle_domain,
    conformal_image_domain,
    ellipse_domain,
    perturbed_circle_domain,
    trig_domain,
)
from .greens import GreenSolution, equilibrium_measure, solve_green
from .analytic import JetData, PolyMap, SeriesMap, jet_cap_norm, preimages, taylor_jet
from .overflow import (
    arakelov_degree,
    boundary_energy,
    classical_inverse_check,
    identity_residual,
    log_abs_boundary_integral,
    overflow,
    degree_consistency_residual,
    pushforward_green,
    symmetry_check,
)
from .family import (
    SeedSequence,
    compose_with_f,
    distinctness_check,
    family_member,
    q_inverse_series,
    tail_bound_check,
)
from .config import ExperimentConfig

__version__ = "0.1.0"
