"""Certificate inputs of the three workloads, generated from a seed, and
the verdict each certificate must give.

A certificate is one or more tbdkit subcommand runs, each on its own
generated config file. Every run is expected to exit 0 with a passing
report; a compat certificate additionally checks the convergence of its
residual ladder. The draw ranges were probed (perfbench/README.md) so
that every draw is expected to pass: a failing draw is counted as a
failure, never redrawn.

The module imports nothing heavy, so input generation is cheap and
happens before numpy loads.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("compat", "positivity", "planewave")

# Certificates generated per seed. A run cycles through them, so each is
# repeated several times and cert_s_p50 is a median of per-certificate means.
POOL = {"compat": 1, "positivity": 6, "planewave": 15}

N32_TOL = 1e-8
COMPOSED_TOL = 1e-10
MIN_ORDER = 4.0


@dataclass(frozen=True)
class Step:
    command: str
    config: dict


@dataclass(frozen=True)
class Cert:
    kind: str
    steps: tuple
    ladder: tuple = ()  # compat only: grid sizes of the analytic runs

    def check(self, reports):
        """None if the reports carry the expected verdict, else why not.
        reports holds one parsed report per step, in step order."""
        for step, rep in zip(self.steps, reports):
            if rep["passed"] is not True:
                return f"{step.command} report did not pass"
        if self.kind != "compat":
            return None
        res = [rep["report"]["max_residual"] for rep in reports[: len(self.ladder)]]
        if not all(r > 0 for r in res):
            return f"non-positive residual in {res}"
        orders = [
            math.log(res[i] / res[i + 1]) / math.log(self.ladder[i + 1] / self.ladder[i])
            for i in range(len(res) - 1)
        ]
        if res[-1] > N32_TOL:
            return f"n={self.ladder[-1]} residual {res[-1]:.3e} > {N32_TOL:g}"
        if min(orders) < MIN_ORDER:
            return f"convergence orders {orders} below {MIN_ORDER:g}"
        composed = reports[-1]["report"]["max_residual"]
        if composed > COMPOSED_TOL:
            return f"composed residual {composed:.3e} > {COMPOSED_TOL:g}"
        return None


def _compat(rng, tiny):
    # CLI default physics (tanh-of-Gaussian potential, P0 = 3, masses
    # 1/1.3, L = 10.5) on one seeded field, refined over the ladder. The
    # coarse rungs only feed the convergence orders, so their CLI
    # tolerance is left open; the finest rung and the composed run carry
    # the certificate's thresholds.
    ladder = (8, 10, 12) if tiny else (16, 24, 32)
    base = {"n_fields": 1, "seed": rng.randrange(2**31)}
    steps = [
        Step("compat", {**base, "grid": {"n": n, "L": 10.5}, "tolerance": 1.0})
        for n in ladder[:-1]
    ]
    steps.append(Step("compat", {**base, "grid": {"n": ladder[-1], "L": 10.5}, "tolerance": N32_TOL}))
    steps.append(Step("compat", {
        **base, "grid": {"n": ladder[0], "L": 10.5},
        "realization": "composed", "tolerance": COMPOSED_TOL,
    }))
    return Cert("compat", tuple(steps), ladder)


def _kernel(rng, tiny):
    amplitude = rng.uniform(0.5, 1.5)
    return Cert("kernel", (Step("kernel", {
        "flavor": rng.choice(("sazdjian", "crater")),
        "potential": {"kind": "tanh_of_g", "g": {"kind": "gaussian", "amplitude": amplitude, "width": 1.0}},
        "P2_values": sorted(rng.uniform(2.0, 10.0) for _ in range(3)),
        "grid": {"n": 8 if tiny else 32, "L": 10.5},
        "expect_positive": True,
    }),))


def _radius(rng, tiny):
    g = rng.uniform(2.5, 5.0)
    return Cert("radius", (Step("radius", {
        "g1": g,
        "g2": g,
        "P0": rng.uniform(0.8, 1.5),
        "flavor": rng.choice(("sazdjian", "crater")),
        "grid": {"n": 8 if tiny else 32, "L": 4.0},
    }),))


def _toy(rng, tiny):
    return Cert("toy", (Step("toy", {"sweep_rho_points": 100, "sweep_phi_points": 100}),))


def _claim1(rng, tiny):
    return Cert("claim1", (Step("claim1", {"v": rng.uniform(0.15, 0.3), "P0": rng.uniform(2.8, 3.1)}),))


def _conserve(rng, tiny):
    return Cert("conserve", (Step("conserve", {
        "v": rng.uniform(0.15, 0.3),
        "P0": rng.uniform(2.8, 3.1),
        "p_spatial_b": [rng.uniform(0.3, 0.6), 0.0, 0.0],
        "green_choice": rng.choice(("advanced", "retarded")),
    }),))


def _gauge(rng, tiny):
    return Cert("gauge", (Step("gauge", {
        "seed": rng.randrange(2**31),
        "c": [rng.uniform(-0.5, 0.5) for _ in range(4)],
        "a": [rng.uniform(0.2, 0.8), 0.0, 0.0, 0.0],
        "grid": {"n": 8 if tiny else 16, "L": 8.0},
    }),))


# Certificates are drawn in a fixed rotation, so every seed runs the same
# mix of subcommands and only their parameters vary.
_ROTATION = {
    "compat": (_compat,),
    "positivity": (_kernel, _radius, _toy),
    "planewave": (_claim1, _conserve, _gauge),
}


def build(workload: str, seed: int, tiny: bool = False):
    """The certificate pool of a workload at a seed. tiny shrinks every
    grid to n = 8 (the compat ladder to 8/10/12) and the pool to one
    certificate per subcommand."""
    rotation = _ROTATION[workload]
    rng = random.Random(f"{workload}/{seed}")
    size = len(rotation) if tiny else POOL[workload]
    return [rotation[i % len(rotation)](rng, tiny) for i in range(size)]
