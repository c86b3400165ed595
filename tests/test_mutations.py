"""Mutation table: each row perturbs one formula a certificate rests on,
by wrapping the name where the certificate looks it up, and runs that
subcommand in-process on its defaults or on the row's config (compat on
one field, radius at a small r*). A certificate that still passes under
a wrong formula certifies nothing, so each row must turn exit 0 into
exit 1. Source is never edited. Rows that no certificate catches yet
are strict xfails citing the ROADMAP item that will mend them; a fix
turns them into passes.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from tbdkit import cli, currents, operators, positivity, scalar_product
from tbdkit.cli import main
from tbdkit.potentials import YukawaTanh
from tbdkit.toy_model import B


def scaled(fn, factor):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs) * factor

    return wrapper


def green_multiplier(monkeypatch):
    monkeypatch.setattr(currents, "green_multiplier", scaled(currents.green_multiplier, 1 + 1e-6))


def defect_f(monkeypatch):
    original = currents.defects

    def wrapper(*args, **kwargs):
        df = original(*args, **kwargs)
        return dataclasses.replace(df, f=df.f * 1.001)

    monkeypatch.setattr(currents, "defects", wrapper)


def surviving_divergence_term(monkeypatch):
    monkeypatch.setattr(cli, "surviving_divergence_term", scaled(cli.surviving_divergence_term, 1 + 1e-6))


def toy_evolve_sin_term(monkeypatch):
    # u(t) = cos(t) u0 - i sin(t) B u0, with the sin term scaled
    original = cli.evolve

    def wrapper(u0, t):
        u0 = np.asarray(u0, dtype=complex).reshape(2)
        return original(u0, t) - 1e-9 * 1j * np.sin(t) * (B @ u0)

    monkeypatch.setattr(cli, "evolve", wrapper)


def _scale_B(flavor_name):
    # positivity reads every form pair, scan and radius routes alike,
    # through its form_pair binding
    def mutate(monkeypatch):
        original = positivity.form_pair

        def wrapper(flavor, *args, **kwargs):
            A, B = original(flavor, *args, **kwargs)
            if flavor != flavor_name:
                return A, B
            return A, B * (1 + 1e-6)

        monkeypatch.setattr(positivity, "form_pair", wrapper)

    return mutate


def sazdjian_A_delta(monkeypatch):
    # the Delta of the sazdjian A = sech^2(Delta), scaled: form_pair reads
    # Delta only there, and the same sech^2 multiplies B. So A - |B|
    # keeps its sign and radius cannot see it; selfcheck's coincidence
    # term, which compares B with the complex step of V, can
    monkeypatch.setattr(scalar_product, "eval_delta", scaled(scalar_product.eval_delta, 1 + 1e-6))


def yukawa_delta(monkeypatch):
    # the one place the Yukawa Delta is written; V and the sazdjian form read it
    monkeypatch.setattr(YukawaTanh, "delta", scaled(YukawaTanh.delta, 1 + 1e-6))


def yukawa_ddelta_dP2(monkeypatch):
    monkeypatch.setattr(YukawaTanh, "ddelta_dP2", scaled(YukawaTanh.ddelta_dP2, 1 + 1e-6))


def _wrap_current(monkeypatch, module, change):
    original = module.j_free_current

    def wrapper(*args, **kwargs):
        j = original(*args, **kwargs)
        return dataclasses.replace(j, J=change(j.J))

    monkeypatch.setattr(module, "j_free_current", wrapper)


def j_column_2(monkeypatch):
    def change(J):
        J = J.copy()
        J[:, 2] *= 1.001
        return J

    _wrap_current(monkeypatch, cli, change)


def j_transposed(monkeypatch):
    _wrap_current(monkeypatch, currents, lambda J: J.T.copy())


def norm_cross_term(monkeypatch):
    # (|a|^2 - |b|^2)(cos^2 t - sin^2 t) + 4 Re(conj(a) b) cos t sin t,
    # with the cross term scaled
    original = cli.norm_along_evolution

    def wrapper(a, b, t):
        cross = 4.0 * (complex(a).conjugate() * complex(b)).real * math.cos(t) * math.sin(t)
        return original(a, b, t) + 1e-9 * cross

    monkeypatch.setattr(cli, "norm_along_evolution", wrapper)


def relative_phase_modulus(monkeypatch):
    # e^{-i theta} with its modulus off one by 1e-6
    monkeypatch.setattr(currents, "_relative_phase", scaled(currents._relative_phase, 1 + 1e-6))


def gauge_sazdjian_B_doubled(monkeypatch):
    original = currents.form_pair

    def wrapper(flavor, *args, **kwargs):
        A, B = original(flavor, *args, **kwargs)
        if flavor != "sazdjian":
            return A, B
        return A, 2.0 * B

    monkeypatch.setattr(currents, "form_pair", wrapper)


def analytic_commutator_dV(monkeypatch):
    # dV/dx_perp^2 of the analytic commutator realization
    monkeypatch.setattr(operators, "eval_dV_dxperp_sq", scaled(operators.eval_dV_dxperp_sq, 1 + 1e-6))


def row(mutate, command, config=None, **kwargs):
    """A table row: the mutation, the subcommand it must fail, and the
    config the subcommand runs on, its defaults where None."""
    return pytest.param(mutate, command, config, **kwargs)


# r* = 7.96e-11, far below any absolute bound on the radii
SMALL_RADIUS = {"g1": 1e-3, "g2": 1e-3, "mu": 100.0, "P0": 1e3}
# compat runs one field of its ten (about 0.5 s)
ONE_FIELD = {"n_fields": 1}

ROWS = [
    row(green_multiplier, "conserve", id="green_multiplier-conserve"),
    row(defect_f, "conserve", id="defect_f-conserve"),
    row(surviving_divergence_term, "claim1", id="surviving_term-claim1"),
    row(toy_evolve_sin_term, "toy", id="evolve_sin_term-toy"),
    row(_scale_B("sazdjian"), "radius", id="sazdjian_B-radius"),
    row(_scale_B("crater"), "radius", id="crater_B-radius"),
    row(sazdjian_A_delta, "selfcheck", id="sazdjian_A_delta-selfcheck"),
    row(yukawa_delta, "selfcheck", id="yukawa_delta-selfcheck"),
    row(yukawa_ddelta_dP2, "radius", id="yukawa_ddelta_dP2-radius"),
    row(yukawa_ddelta_dP2, "radius", SMALL_RADIUS, id="yukawa_ddelta_dP2-radius_small_r"),
    row(
        _scale_B("sazdjian"), "kernel", id="sazdjian_B-kernel",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: the default potential has B = 0 (no P^2 dependence), and kernel reads only the sign of A - |B|"),
    ),
    row(
        j_column_2, "claim1", id="J_column_2-claim1",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4: claim1's pair at p = 0 reads one divergence component"),
    ),
    row(norm_cross_term, "toy", id="norm_cross_term-toy"),
    row(
        j_transposed, "conserve", id="J_transposed-conserve",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="the completion conserves any J, which is what conserve certifies"),
    ),
    row(relative_phase_modulus, "gauge", id="relative_phase_modulus-gauge"),
    row(
        gauge_sazdjian_B_doubled, "gauge", id="sazdjian_B_doubled-gauge",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: the total-momentum route reads the same kernel_after and builds nothing"),
    ),
    row(
        analytic_commutator_dV, "compat", ONE_FIELD, id="analytic_commutator_dV-compat",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: the n=32 residual stays under 1e-8"),
    ),
]


@pytest.mark.parametrize("mutate, command, config", ROWS)
def test_mutation_fails_its_certificate(tmp_path, monkeypatch, mutate, command, config):
    mutate(monkeypatch)
    argv = [command, "--out", str(tmp_path), "--quiet"]
    if config is not None:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema": "tbdkit-config/1", **config}))
        argv += ["--config", str(p)]
    assert main(argv) == 1


def test_selfcheck_coincidence_term_catches_dV_dP2(monkeypatch):
    # selfcheck's coincidence section, not only its radius section, must
    # see a wrong dV/dP^2 = sech^2(Delta) dDelta/dP^2
    yukawa_ddelta_dP2(monkeypatch)
    report, _ = cli.run_selfcheck(cli.DEFAULTS["selfcheck"])
    assert not report["results"]["coincidence_term"]["passed"]
