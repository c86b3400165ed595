"""Command line driver: wires JSON configs to the experiment runners
and emits deterministic JSON (and CSV) artifacts.

Exit codes: 0 all assertions passed, 1 a physics assertion failed,
2 usage or config error, a config too large for memory included.

TBDKIT_THREADS pins BLAS/OpenMP parallelism: when set, it overrides any
inherited OMP/OpenBLAS/MKL/numexpr thread variable. It must take effect
before numpy loads, which is why this module touches the environment
first and the package root imports nothing heavy.
"""

import os


def _configure_threads():
    cap = os.environ.get("TBDKIT_THREADS")
    if cap:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = cap


_configure_threads()

import argparse  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .currents import (  # noqa: E402
    coincidence_limit_term,
    conservation_sweep,
    divergence1,
    divergence2,
    gauge_check,
    j_free_current,
    surviving_divergence_term,
)
from .kinematics import MassPair, projector, x_perp  # noqa: E402
from .operators import (  # noqa: E402
    Grid,
    TwoBodyDiracSystem,
    compatibility_residual,
    free_product_state,
    plane_wave_solutions,
    plane_wave_state,
    random_band_limited_field,
)
from .positivity import (  # noqa: E402
    RADIUS_FLOOR,
    empirical_boundary_consistent,
    flavor_boundary_radius,
    scan,
    violation_radius,
)
from .potentials import Constant, GaussianG, TanhOfG, YukawaTanh  # noqa: E402
from .scalar_product import form_pair  # noqa: E402
from .serialize import write_csv, write_json  # noqa: E402
from .spinor_algebra import build_gammas, lift  # noqa: E402
from .toy_model import (  # noqa: E402
    a_product,
    evolve,
    norm_along_evolution,
    positivity_breakdown_search,
    sweep_samples,
)

SCHEMA = "tbdkit-config/1"
REPORT_SCHEMA = "tbdkit-report/1"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing

_SQRT_4PI = math.sqrt(4.0 * math.pi)

DEFAULTS = {
    "compat": {
        "potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": 0.03, "width": 1.2}},
        "masses": {"m1": 1.0, "m2": 1.3},
        "P0": 3.0,
        "grid": {"n": 32, "L": 10.5},
        "n_fields": 10,
        "seed": 20240817,
        "realization": "analytic",
        "tolerance": 1e-8,
    },
    "claim1": {
        "masses": {"m1": 1.0, "m2": 1.3},
        "P0": 3.0,
        "v": 0.3,
        "p0_window": (-1.2, 0.5),
    },
    "conserve": {
        "masses": {"m1": 1.0, "m2": 1.3},
        "P0": 3.0,
        "v": 0.3,
        "p_spatial_a": (0.0, 0.0, 0.0),
        "p_spatial_b": (0.6, 0.0, 0.0),
        "p0_window": (-1.2, 0.5),
        "green_choice": "advanced",
    },
    "kernel": {
        "flavor": "sazdjian",
        "potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": 0.9, "width": 1.0}},
        "P2_values": [4.0, 6.25, 9.0],
        "grid": {"n": 32, "L": 10.5},
        "expect_positive": True,
    },
    "radius": {
        "g1": _SQRT_4PI,
        "g2": _SQRT_4PI,
        "mu": 1.0,
        "P0": 1.0,
        "flavor": "sazdjian",
        "grid": {"n": 32, "L": 4.0},
    },
    "toy": {
        "sweep_rho_points": 100,
        "sweep_phi_points": 100,
    },
    "gauge": {
        "potential": {"kind": "yukawa_tanh", "g1": _SQRT_4PI, "g2": _SQRT_4PI, "mu": 1.0},
        "P0": 2.0,
        "grid": {"n": 16, "L": 8.0},
        "seed": 7,
        "c": (0.37, 0.21, -0.4, 0.11),
        "a": (0.5, 0.0, 0.0, 0.0),
        "flavor": "sazdjian",
    },
    "selfcheck": {
        "seed": 12345,
    },
}


def _require_keys(obj, allowed, ctx, required=True):
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {sorted(unknown)}")
    missing = set(allowed) - set(obj) if required else ()
    if missing:
        raise ConfigError(f"missing keys in {ctx}: {sorted(missing)}")


# family -> kind -> spec class. A spec's keys are its class's fields, all
# required: a field named after a family holds a nested record of that
# family, any other field is a number.
_SPECS = {
    "g": {"gaussian": GaussianG},
    "potential": {"constant": Constant, "tanh_of_g": TanhOfG, "yukawa_tanh": YukawaTanh},
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", str: "a string"}


def _check(path, value, default):
    """Raise a ConfigError naming the dotted path unless value has the
    JSON type of default: a bool, an int (not a bool) or a string as the
    default is; a finite number for a float; a list of finite numbers
    for a list, of the default's length for a tuple; for a dict, exactly
    its keys, each checked the same way. A key named after a _SPECS
    family holds a tagged record of that family."""
    family = path.rpartition(".")[2]
    if family in _SPECS:
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in _SPECS[family]:
            raise ConfigError(f"unknown {path} kind: {kind!r}")
        fields = dataclasses.fields(_SPECS[family][kind])
        _require_keys(value, {"kind", *(f.name for f in fields)}, f"{kind} {family} spec")
        for f in fields:
            _check(f"{path}.{f.name}", value[f.name], 0.0)
    elif isinstance(default, dict):
        _require_keys(value, default, "grid spec" if path == "grid" else path)
        for key in default:
            _check(f"{path}.{key}", value[key], default[key])
    elif isinstance(default, (list, tuple)):
        fixed = isinstance(default, tuple)
        if not isinstance(value, list) or (len(value) != len(default) if fixed else not value):
            shape = f"a list of {len(default)} numbers" if fixed else "a nonempty list"
            raise ConfigError(f"{path} must be {shape}, got {value!r}")
        for i, entry in enumerate(value):
            _check(f"{path}[{i}]", entry, 0.0)
    elif isinstance(default, float):
        if type(value) not in (int, float):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # false for NaN, inf and ints beyond any float
            raise ConfigError(f"{path} must be finite, got {value!r}")
    elif type(value) is not type(default):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[type(default)]}, got {value!r}")


def _build(family, obj):
    cls = _SPECS[family][obj["kind"]]
    return cls(**{key: _build(key, v) if key in _SPECS else v for key, v in obj.items() if key != "kind"})


def parse_potential(obj):
    _check("potential", obj, None)
    return _build("potential", obj)


def load_config(command: str, path):
    """The config of a command: its DEFAULTS, overridden by the keys of
    the JSON file at path, each checked against its default's type. The
    values are kept as given, and a report echoes them."""
    cfg = copy.deepcopy(DEFAULTS[command])
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as e:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    if data.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}")
    declared = data.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"config is for command {declared!r}, not {command!r}")
    _require_keys(data, set(cfg) | {"schema", "command"}, f"{command} config", required=False)
    for key, value in data.items():
        if key not in ("schema", "command"):
            _check(key, value, cfg[key])
            cfg[key] = value
    if cfg.get("seed", 0) < 0:  # numpy's own message names no key
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    return cfg


# ---------------------------------------------------------------------------
# Runners. Each returns (report_dict, extra_artifacts) with
# extra_artifacts a dict filename -> (header, rows).


def run_compat(cfg):
    grid = Grid(**cfg["grid"])
    system = TwoBodyDiracSystem(MassPair(**cfg["masses"]), parse_potential(cfg["potential"]), build_gammas("dirac"))
    rng = np.random.default_rng(cfg["seed"])
    P = np.array([cfg["P0"], 0.0, 0.0, 0.0])
    if cfg["n_fields"] < 1:
        raise ConfigError(f"n_fields must be at least 1, got {cfg['n_fields']}")
    residuals = []
    for _ in range(cfg["n_fields"]):
        fld = random_band_limited_field(P, grid, rng)
        residuals.append(compatibility_residual(system, fld, cfg["realization"]))
    worst = max(residuals)
    report = {
        "residuals": residuals,
        "max_residual": worst,
        "tolerance": cfg["tolerance"],
        "realization": cfg["realization"],
        "passed": bool(worst <= cfg["tolerance"]),
    }
    return report, {}


def _first_equation_states(system, P, p_spatial, window):
    roots = plane_wave_solutions(system, P, p_spatial, p0_window=window)
    if not roots:
        raise ConfigError(f"no dispersion roots in p0_window {list(window)} at p = {list(p_spatial)}")
    return [plane_wave_state(P, p_spatial, p0, basis[:, 0]) for p0, basis in roots]


# claim1's bounds: the free divergence vanishes, the two routes to the
# interacting divergence agree, and that divergence is not zero
FREE_TOLERANCE = 1e-12
MATCH_TOLERANCE = 1e-10
MAGNITUDE_FLOOR = 1e-3


def run_claim1(cfg):
    masses = MassPair(**cfg["masses"])
    gam = build_gammas("dirac")

    # Free dichotomy arm: on-shell product states at two different
    # momenta; both divergences must vanish.
    sa = free_product_state(gam, masses, (0.0, 0.0, 0.0))
    sb = free_product_state(gam, masses, (0.3, 0.0, 0.0))
    jf = j_free_current(gam, sa, sb)
    free_max = float(
        max(np.max(np.abs(divergence1(jf))), np.max(np.abs(divergence2(jf))))
    )

    # Interacting arm: first-equation solutions at constant v; the
    # divergence is nonzero and matches the closed-form surviving term.
    sysv = TwoBodyDiracSystem(masses, Constant(v=cfg["v"]), gam)
    P = np.array([cfg["P0"], 0.0, 0.0, 0.0])
    states = _first_equation_states(sysv, P, (0, 0, 0), cfg["p0_window"])
    if len(states) < 2:
        raise ConfigError(
            f"p0_window {list(cfg['p0_window'])} holds {len(states)} dispersion root at p = [0, 0, 0]; "
            "a state pair needs two"
        )
    sA, sB = states[0], states[1]
    d_direct = divergence1(j_free_current(gam, sA, sB))
    d_closed = surviving_divergence_term(sysv, sA, sB)
    match = float(np.max(np.abs(d_direct - d_closed)))
    magnitude = float(np.max(np.abs(d_direct)))
    report = {
        "free_max_divergence": free_max,
        "interacting_roots": [s.p1[0] - P[0] / 2 for s in states],
        "interacting_divergence": d_direct,
        "closed_form_divergence": d_closed,
        "route_mismatch": match,
        "magnitude": magnitude,
        "free_tolerance": FREE_TOLERANCE,
        "match_tolerance": MATCH_TOLERANCE,
        "magnitude_floor": MAGNITUDE_FLOOR,
        "passed": bool(free_max <= FREE_TOLERANCE and match <= MATCH_TOLERANCE and magnitude >= MAGNITUDE_FLOOR),
    }
    return report, {}


CONSERVE_TOLERANCE = 1e-12  # bound on the completed divergence at epsilon = 0


def run_conserve(cfg):
    masses = MassPair(**cfg["masses"])
    gam = build_gammas("dirac")
    sysv = TwoBodyDiracSystem(masses, Constant(v=cfg["v"]), gam)
    P = np.array([cfg["P0"], 0.0, 0.0, 0.0])
    sA = _first_equation_states(sysv, P, cfg["p_spatial_a"], cfg["p0_window"])[0]
    sB = _first_equation_states(sysv, P, cfg["p_spatial_b"], cfg["p0_window"])[0]
    sweep = conservation_sweep(sysv, sA, sB, green_choice=cfg["green_choice"])
    report = {
        "epsilons": sweep.epsilons,
        "green_choice": sweep.green_choice,
        "residuals1": sweep.residuals1,
        "residuals2": sweep.residuals2,
        "residual": sweep.residual,
        "tolerance": CONSERVE_TOLERANCE,
        "passed": bool(sweep.residual <= CONSERVE_TOLERANCE),
    }
    return report, {}


def run_kernel(cfg):
    grid = Grid(**cfg["grid"])
    pot = parse_potential(cfg["potential"])
    P2_values = cfg["P2_values"]
    for P2 in P2_values:
        if not P2 > 0:
            raise ConfigError(f"P2_values entries must be positive numbers, got {P2!r}")
    rep = scan(cfg["flavor"], pot, P2_values, grid)
    report = {
        "scan": rep,
        "expect_positive": cfg["expect_positive"],
        "passed": bool(rep.passed == cfg["expect_positive"]),
    }
    # one row per distinct squared radius of the grid (grid.radial), in increasing order
    r2, _ = grid.radial
    columns = (np.sqrt(r2), rep.radius_points, rep.argmin_map)
    extras = {"kernel_min_eigenvalues.csv": (("r", "points", "min_eigenvalue"), columns)}
    return report, extras


# Bound on the spread of the three radii, relative to r* (the report
# echoes it times r*). violation_radius is W(mu C) / mu, within two ulps
# of r*. Each flavor's bisection ends within one ulp of where its computed
# A - |B| changes sign, at the computed |Delta(r)| = 1/2. Delta(r) is a few
# roundings from exact, and since |d ln Delta / d ln r| = 1 + mu r >= 1 its
# relative error moves the sign change by no more in r.
AGREEMENT_TOLERANCE = 16 * 2.0**-52


def run_radius(cfg):
    grid = Grid(**cfg["grid"])
    pot = YukawaTanh(g1=cfg["g1"], g2=cfg["g2"], mu=cfg["mu"])
    P0 = float(cfg["P0"])
    if not 0 < P0 * P0 < math.inf:
        raise ConfigError(f"P0 = {cfg['P0']!r} must have a positive finite square, got P0^2 = {P0 * P0!r}")
    r_star = violation_radius(pot, P0)
    if 0 < r_star < RADIUS_FLOOR:
        raise ConfigError(
            f"the violation radius r* = {r_star!r} is below 2^-511 (about 1.5e-154), "
            "the smallest radius the flavor routes resolve"
        )
    # the scan before the flavor routes: it rejects a form that is not finite
    # on the grid, which they would only see as a boundary they never reach
    rep = scan(cfg["flavor"], pot, [P0 * P0], grid)
    r_saz = flavor_boundary_radius("sazdjian", pot, P0)
    r_cra = flavor_boundary_radius("crater", pot, P0)
    agreement = AGREEMENT_TOLERANCE * r_star
    report = {
        "analytic_radius": r_star,
        "sazdjian_boundary_radius": r_saz,
        "crater_boundary_radius": r_cra,
        "empirical_boundary_radius": rep.violation_radius_max,
        "grid_cell_diagonal": math.sqrt(3.0) * grid.h,
        "agreement_tolerance": agreement,
        "scan": rep,
        "passed": bool(
            max(r_star, r_saz, r_cra) - min(r_star, r_saz, r_cra) <= agreement
            and empirical_boundary_consistent(rep, r_star, grid)
        ),
    }
    return report, {}


def run_toy(cfg):
    n_rho, n_phi = cfg["sweep_rho_points"], cfg["sweep_phi_points"]
    if n_rho < 1 or n_phi < 1:
        raise ConfigError(f"sweep_rho_points and sweep_phi_points must be at least 1, got {n_rho} and {n_phi}")
    checks = {
        "plus_basis_norm": (a_product((1, 0), (1, 0)), 1.0),
        "minus_basis_norm": (a_product((0, 1), (0, 1)), -1.0),
        "null_vector_norm": (a_product((1, 1), (1, 1)), 0.0),
        "vn_norm_n3": (a_product((1, 1 - 1 / 3), (1, 1 - 1 / 3)), 1 - (1 - 1 / 3) ** 2),
    }
    t = 0.7
    ut = evolve((1, 0), t)
    rotation_exact = bool(ut[0] == math.cos(t) and ut[1] == -math.sin(t))
    # the second datum has Re(conj(a) b) != 0, so the cross term counts
    closed_vs_direct = max(
        abs(norm_along_evolution(1.0, b, t) - a_product(evolve((1, b), t), evolve((1, b), t)).real)
        for b in (0.25j, 0.25 + 0.25j)
    )
    sweep = positivity_breakdown_search(sweep_samples(n_rho, n_phi))
    values_exact = all(val == expect for val, expect in checks.values())
    report = {
        "values": {k: v[0] for k, v in checks.items()},
        "values_exact": bool(values_exact),
        "rotation_solution_exact": rotation_exact,
        "closed_form_vs_direct": closed_vs_direct,
        "sweep": sweep,
        "passed": bool(
            values_exact
            and rotation_exact
            and closed_vs_direct <= 1e-12
            and sweep.n_survivors == 0
        ),
    }
    return report, {}


def run_gauge(cfg):
    grid = Grid(**cfg["grid"])
    potential = parse_potential(cfg["potential"])
    P = np.array([cfg["P0"], 0.0, 0.0, 0.0])
    # the compat test field's draw; gauge_check reads only its t = 0 profile
    fld = random_band_limited_field(P, grid, np.random.default_rng(cfg["seed"]))
    rel, tot = gauge_check(potential, build_gammas("dirac"), fld, cfg["c"], cfg["a"], flavor=cfg["flavor"])
    report = {
        "relative_only": rel,
        "total_dependent": tot,
        "kernel_shift_magnitude": abs(tot.difference),
        "passed": bool(rel.passed and tot.passed),
    }
    return report, {}


def _algebra_battery():
    out = {}
    worst = 0.0
    for tag in ("dirac", "weyl"):
        gam = build_gammas(tag)
        for mu in range(4):
            for nu in range(4):
                anti = gam.gamma[mu] @ gam.gamma[nu] + gam.gamma[nu] @ gam.gamma[mu]
                target = 2.0 * gam.metric[mu, nu] * np.eye(4)
                worst = max(worst, float(np.max(np.abs(anti - target))))
            herm = gam.gamma[mu].conj().T - gam.gamma[0] @ gam.gamma[mu] @ gam.gamma[0]
            worst = max(worst, float(np.max(np.abs(herm))))
        a, b = lift(1, gam.gamma[0]), lift(2, gam.gamma[1])
        worst = max(worst, float(np.max(np.abs(a @ b - b @ a))))
    rng = np.random.default_rng(3)
    proj_worst = 0.0
    for _ in range(50):
        P = np.zeros(4)
        P[0] = rng.uniform(1.5, 4.0)
        P[1:] = rng.uniform(-0.4, 0.4, 3) * P[0]
        pi = projector(P)
        proj_worst = max(proj_worst, float(np.max(np.abs(pi @ pi - pi))))
        x = rng.standard_normal(4)
        xp = x_perp(x, P)
        proj_worst = max(proj_worst, abs(xp[0] * P[0] - xp[1] * P[1] - xp[2] * P[2] - xp[3] * P[3]))
    out["clifford_hermiticity_max"] = worst
    out["projector_max"] = proj_worst
    out["passed"] = bool(worst <= 1e-12 and proj_worst <= 1e-12)
    return out


def run_selfcheck(cfg):
    results = {}
    results["algebra"] = _algebra_battery()

    toy_rep, _ = run_toy({"sweep_rho_points": 50, "sweep_phi_points": 50})
    results["toy"] = {"passed": toy_rep["passed"], "n_survivors": toy_rep["sweep"].n_survivors}

    radius_grid = {**DEFAULTS["radius"]["grid"], "n": 16}
    radius_rep, _ = run_radius({**DEFAULTS["radius"], "grid": radius_grid})
    results["radius"] = {
        "analytic": radius_rep["analytic_radius"],
        "sazdjian": radius_rep["sazdjian_boundary_radius"],
        "crater": radius_rep["crater_boundary_radius"],
        "passed": radius_rep["passed"],
    }

    # the complex step of V at P^0 = 2 against the sazdjian B = 4 P^2 dV/dP^2
    pot = parse_potential(DEFAULTS["gauge"]["potential"])
    worst_rel = 0.0
    for r in (0.4, 0.8, 1.6):
        term = coincidence_limit_term(pot, -(r**2), 2.0, 1e-20)
        _, exact = form_pair("sazdjian", pot, 4.0, -(r**2))
        worst_rel = max(worst_rel, float(abs(term - exact) / abs(exact)))
    results["coincidence_term"] = {"max_relative_error": worst_rel, "passed": bool(worst_rel <= 1e-12)}

    claim1_rep, _ = run_claim1(DEFAULTS["claim1"])
    results["claim1"] = {
        "route_mismatch": claim1_rep["route_mismatch"],
        "magnitude": claim1_rep["magnitude"],
        "free_max_divergence": claim1_rep["free_max_divergence"],
        "passed": claim1_rep["passed"],
    }

    conserve_rep, _ = run_conserve(DEFAULTS["conserve"])
    results["conserve"] = {
        "residual": conserve_rep["residual"],
        "passed": conserve_rep["passed"],
    }

    kernel_rep, _ = run_kernel({**DEFAULTS["kernel"], "grid": {"n": 8, "L": 6.0}})
    rep_neg = radius_rep["scan"]
    consistent = empirical_boundary_consistent(rep_neg, radius_rep["analytic_radius"], Grid(**radius_grid))
    results["kernel"] = {
        "tanh_min_eigenvalue": kernel_rep["scan"].min_eigenvalue,
        "yukawa_min_eigenvalue": rep_neg.min_eigenvalue,
        "yukawa_boundary_consistent": consistent,
        "passed": bool(kernel_rep["passed"] and not rep_neg.passed and consistent),
    }

    # The same field under both realizations: each run draws it from the seed.
    compat_grid = {**DEFAULTS["compat"]["grid"], "n": 16}
    compat_cfg = {**DEFAULTS["compat"], "grid": compat_grid, "n_fields": 1, "seed": cfg["seed"]}
    analytic, _ = run_compat({**compat_cfg, "tolerance": 1e-3})
    composed, _ = run_compat({**compat_cfg, "realization": "composed", "tolerance": 1e-10})
    results["compat"] = {
        "analytic_residual_n16": analytic["max_residual"],
        "composed_residual_n16": composed["max_residual"],
        "passed": bool(analytic["passed"] and composed["passed"]),
    }

    passed = all(section["passed"] for section in results.values())
    report = {"seed": cfg["seed"], "results": results, "passed": bool(passed)}
    return report, {}


_RUNNERS = {
    "compat": run_compat,
    "claim1": run_claim1,
    "conserve": run_conserve,
    "kernel": run_kernel,
    "radius": run_radius,
    "toy": run_toy,
    "gauge": run_gauge,
    "selfcheck": run_selfcheck,
}

_HELP = {
    "compat": "compatibility identity residuals on random band-limited fields",
    "claim1": "free-current divergence dichotomy (free vs constant-v states)",
    "conserve": "the completion conserves any current: its divergence at epsilon = 0",
    "kernel": "norm kernel construction and positivity scan",
    "radius": "analytic vs empirical violation radius for the Yukawa-tanh core",
    "toy": "indefinite-metric counterexample suite",
    "gauge": "restricted gauge transformations against the norm kernel",
    "selfcheck": "deterministic battery across all modules",
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tbdkit",
        description="two-body Dirac equation verification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"tbdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args.config)
    except (ConfigError, OSError) as e:
        print(f"tbdkit {args.command}: config error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    # A config that ends in exit 2 prints one line: the warnings of its
    # run are shown only if the run writes its report.
    with warnings.catch_warnings(record=True) as caught:
        try:
            report, extras = _RUNNERS[args.command](cfg)
            full = {
                "schema": REPORT_SCHEMA,
                "command": args.command,
                "config": cfg,
                "report": report,
                "passed": report["passed"],
            }
            out.mkdir(parents=True, exist_ok=True)
            # a non-finite number in the report raises here, before the file opens
            write_json(out / f"{args.command}.json", full)
            for fname, (header, columns) in extras.items():
                write_csv(out / fname, header, columns)
        except (ConfigError, ValueError) as e:
            print(f"tbdkit {args.command}: invalid configuration: {e}", file=sys.stderr)
            return 2
        except MemoryError as e:  # numpy's failed allocations subclass it
            detail = str(e) or "allocation failed"
            print(f"tbdkit {args.command}: configuration too large for memory: {detail}", file=sys.stderr)
            return 2
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if not args.quiet:
        status = "PASS" if report["passed"] else "FAIL"
        print(f"tbdkit {args.command}: {status} (report: {out / (args.command + '.json')})")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
