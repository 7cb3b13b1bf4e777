"""Workload definitions: each builds the JSON config that `g2flow run` reads.

The workload seed is the only input; it seeds the `random_band` initial
condition, so the same seed always gives the same config.  Every run is a
2-D flow on the unit torus with `dt` at the CFL bound
`cfl_safety * h^2 / (2 k)` for the default `cfl_safety = 0.25`, so step
counts, not times, fix the work per run.
"""

from __future__ import annotations

CFL_SAFETY = 0.25  # FlowConfig's default
ACTIVE_DIMS = (0, 1)


def _cfl_dt(n: int) -> float:
    h = 1.0 / n
    return CFL_SAFETY * h * h / (2.0 * len(ACTIVE_DIMS))


def _base(n: int, scheme: str, steps: int, seed: int, diagnostics_every: int) -> dict:
    dt = _cfl_dt(n)
    return {
        "grid": {"length": 1.0, "n": n, "active_dims": list(ACTIVE_DIMS), "stencil_order": 2},
        # numpy's default_rng takes only non-negative seeds
        "initial": {"family": "random_band", "amplitude": 0.3, "seed": seed % 2**32},
        "dt": dt,
        "t_end": steps * dt,
        "integrator": "rk4",
        "scheme": scheme,
        "cfl_safety": CFL_SAFETY,
        "diagnostics_every": diagnostics_every,
    }


def fx_2d_128(seed: int) -> dict:
    # production run on the largest 2-D grid; records only at 0, 12, 24
    return _base(128, "fx", steps=24, seed=seed, diagnostics_every=12)


def both_2d_64(seed: int) -> dict:
    # both routes; the direct route checks its metric (batched Cholesky) every 4 steps
    config = _base(64, "both", steps=12, seed=seed, diagnostics_every=6)
    config["metric_check_every"] = 4
    return config


def check_2d_32(seed: int) -> dict:
    # small grid, dense diagnostics: a theta probe and the entropy every 4 steps
    # carry most of run_s.  At the default constraint_abort_tol (1e-6) this
    # run aborts on its first step (pre-projection drift ~1.5e-6 at 32^2, the
    # discretization defect of ROADMAP item 2 Step B), so it uses 1e-3 as
    # verify.residual_trajectory and the tests do
    config = _base(32, "fx", steps=20, seed=seed, diagnostics_every=4)
    config["constraint_abort_tol"] = 1e-3
    config["theta_probes"] = [[[8, 4], 0.05]]
    config["entropy_sigma"] = 0.01
    return config


# name -> (config builder, also run both `verify` suites).  The suites do
# not read the config, so only one workload carries them.
WORKLOADS = {
    "fx-2d-128": (fx_2d_128, False),
    "both-2d-64": (both_2d_64, False),
    "check-2d-32": (check_2d_32, True),
}
