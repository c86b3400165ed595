import dataclasses
import json

import numpy as np
import pytest

from tbdkit.potentials import eval_ddelta_dP2, eval_delta
from tbdkit.serialize import _format_float
from tbdkit.spinor_algebra import build_gammas, slash


@pytest.fixture(scope="session")
def dirac():
    return build_gammas("dirac")


@pytest.fixture(scope="session")
def weyl():
    return build_gammas("weyl")


@pytest.fixture(params=["dirac", "weyl"])
def gammas(request):
    return build_gammas(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    raise TypeError(f"CSV cells must be scalars, got {type(v).__name__}")


@pytest.fixture(scope="session")
def reference_csv():
    """The row-by-row CSV writer that `serialize.write_csv` replaced,
    kept as its oracle: text of (header, rows), every cell formatted
    on its own."""

    def text(header, rows):
        lines = [",".join(header)]
        for row in rows:
            assert len(row) == len(header)
            lines.append(",".join(_format_cell(v) for v in row))
        return "".join(line + "\n" for line in lines)

    return text


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return '{"im":%s,"re":%s}' % (_format_float(c.imag), _format_float(c.real))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
        items = (f"{json.dumps(k, ensure_ascii=True)}:{_encode(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = (f for f in dataclasses.fields(obj) if f.metadata.get("serialize", True))
        return _encode({f.name: getattr(obj, f.name) for f in fields})
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


@pytest.fixture(scope="session")
def reference_json():
    """The isinstance-chain encoder that `serialize.canonical_json`
    replaced, kept as its oracle: canonical JSON text of a report
    object, each value tested type by type."""
    return _encode


def _radius_sq(grid):
    o_sq = np.arange(1 - grid.n, grid.n, 2) ** 2
    return (grid.h / 2) ** 2 * (o_sq[:, None, None] + o_sq[:, None] + o_sq)


@pytest.fixture(scope="session")
def reference_radius_sq():
    """The squared radius (h/2)^2 q of every point of a grid, with the
    integer q = o_i^2 + o_j^2 + o_k^2 of the odd offsets o_j = 2j + 1 - n,
    broadcast to (n, n, n) without grouping: the per-point oracle of
    Grid.radial, and the x_perp^2 = -r^2 of point-by-point evaluations."""
    return _radius_sq


def _dV_dP2(spec, x_perp_sq, P_sq):
    return eval_ddelta_dP2(spec, x_perp_sq, P_sq) / np.cosh(eval_delta(spec, x_perp_sq, P_sq)) ** 2


@pytest.fixture(scope="session")
def reference_dV_dP2():
    """dV/dP^2 = sech^2(Delta) dDelta/dP^2 of V = tanh(Delta), which no
    evaluator supplies: the oracle that the difference quotients of V
    and the kernels' B = 4 P^2 dV/dP^2 are checked against. A spec,
    x_perp^2 and P^2 give a float, or an array for an array x_perp^2."""
    return _dV_dP2


def _first_equation_matrices(system, P, p_spatial, p0s):
    """M_1 = (p1.gamma_1 - m1) + v (p2.gamma_2 - m2) at p1 = P/2 + p,
    p2 = P/2 - p, p = (p0, p_spatial), for every p0 of p0s at once, with
    np.kron for the lifts. The elementwise operations are those of
    lift(i, slash(...)) and the solver's per-p0 build, in the same order,
    so each matrix is bit-equal to the one built for its p0 alone."""
    g = system.gammas.gamma
    v = system.potential.constant_value()
    P = np.asarray(P, dtype=float)
    p_spatial = np.asarray(p_spatial, dtype=float)

    def slash4(q0, q_spatial):
        out = q0[:, None, None] * g[0].astype(complex)
        for k in (1, 2, 3):
            out = out - q_spatial[k - 1] * g[k]
        return out

    eye4 = np.eye(4)[None]
    S1 = np.kron(slash4(P[0] / 2 + p0s, P[1:] / 2 + p_spatial), eye4)
    S2 = np.kron(eye4, slash4(P[0] / 2 - p0s, P[1:] / 2 - p_spatial))
    eye = np.eye(16)
    return S1 - system.masses.m1 * eye + (S2 - system.masses.m2 * eye) * v


@pytest.fixture(scope="session")
def reference_first_equation_matrices():
    """The first equation's matrices M_1 at a stack of relative energies,
    each bit-equal to the one the plane-wave solver builds: the oracle of
    the root searches' brute scans."""
    return _first_equation_matrices


def _second_equation_matrix(system, p1, p2):
    v = system.potential.constant_value()
    m1, m2 = system.masses.m1, system.masses.m2
    eye4, eye = np.eye(4), np.eye(16)
    S1 = np.kron(slash(system.gammas, p1), eye4)
    S2 = np.kron(eye4, slash(system.gammas, p2))
    return S2 + m2 * eye + (S1 + m1 * eye) * v


@pytest.fixture(scope="session")
def reference_second_equation_matrix():
    """M_2 = (slash_2(p2) + m2) + v (slash_1(p1) + m1), the second
    equation D_2 at constant v on the plane wave of constituent momenta
    p1 and p2, which no module builds."""
    return _second_equation_matrix


def _second_equation_residual(system, state):
    return float(np.linalg.norm(_second_equation_matrix(system, state.p1, state.p2) @ state.u))


@pytest.fixture(scope="session")
def reference_second_equation_residual():
    """||M_2 u|| of a plane-wave state, with M_2 = (slash_2(p2) + m2)
    + v (slash_1(p1) + m1) the second equation D_2 at constant v. No
    certificate reads the second equation; the free product states are
    held to it here."""
    return _second_equation_residual
