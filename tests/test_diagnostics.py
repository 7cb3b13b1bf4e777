"""Energy, heat kernel, localized energy, entropy, decay, monitors."""

import itertools
import math
import tracemalloc

import numpy as np
import oracles
import pytest

from g2flow import diagnostics
from g2flow.diagnostics import (
    HeatKernelSpec,
    decay_rate,
    energy,
    entropy,
    entropy_tables,
    grad_log_kernel,
    heat_kernel,
    monotonicity_residual,
    monotonicity_terms,
    record_for_state,
    record_for_torsion,
    sup_norm,
    theta,
)
from g2flow.flow import FlowConfig, InitialSpec, parabolic_rescale, run
from g2flow.grid import Grid, div2, integrate, partial
from g2flow.states import (
    localized_state,
    random_band_state,
    torsion_of_state,
    torsion_rows_from_sorted,
    torsion_rows_of_state,
)


def test_energy_examples(tables, grid32):
    assert energy(grid32, grid32.zeros(2)) == 0.0
    t = grid32.zeros(2)
    t[0, 1] = np.sin(2 * np.pi * grid32.coordinate(0) / grid32.length)
    assert energy(grid32, t) == pytest.approx(grid32.length**7 / 4.0)


def test_energy_rescaling_power(grid32):
    # a c-rescaled snapshot has energy c^5 E: |T|^2 scales by c^-2, volume by c^7
    from g2flow.flow import FlowConfig, InitialSpec, run

    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=1e-4,
        t_end=1e-3,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    resc = parabolic_rescale(traj, 2.0)
    e1 = energy(traj.grid, torsion_of_state(traj.states[0]))
    e2 = energy(resc.grid, torsion_of_state(resc.states[0]))
    assert e2 == pytest.approx(2.0**5 * e1, rel=1e-12)


def test_kernel_mass_and_positivity(grid32):
    for tau in (1e-3, (1.0 / 8.0) ** 2, 0.1, 0.7):
        spec = HeatKernelSpec(center=(5, 20), t0=tau)
        u = heat_kernel(grid32, spec, 0.0)
        assert np.all(u >= 0.0)
        assert abs(integrate(grid32, u) - 1.0) <= 1e-8


def test_kernel_errors(grid32):
    spec = HeatKernelSpec(center=(0, 0), t0=0.1)
    with pytest.raises(ValueError):
        heat_kernel(grid32, spec, 0.1)
    with pytest.raises(ValueError):
        heat_kernel(grid32, spec, 0.2)
    with pytest.raises(ValueError):
        heat_kernel(grid32, HeatKernelSpec(center=(0,), t0=0.1), 0.0)


def test_kernel_concentration_rate():
    # peak value grows like (4 pi tau)^(-k/2) for k active dims
    g = Grid(length=1.0, n=64, active_dims=(0, 1))
    spec = HeatKernelSpec(center=(32, 32), t0=1.0)
    vals = {}
    for tau in (4e-3, 1e-3):
        u = heat_kernel(g, spec, 1.0 - tau)
        vals[tau] = u[32, 32] * g.length ** (7 - g.k)
    predicted = (4e-3 / 1e-3) ** (g.k / 2.0)
    assert vals[1e-3] / vals[4e-3] == pytest.approx(predicted, rel=1e-3)


def test_grad_log_kernel_matches_euclidean_profile(grid32):
    # for t0 - t << L^2 the lifted-coordinate formula (y - x0)/(2 tau) holds
    tau = 1e-3
    spec = HeatKernelSpec(center=(16, 16), t0=tau)
    gf = grad_log_kernel(grid32, spec, 0.0)
    d0 = grid32.lifted_displacement(0, 16)
    inner = np.abs(d0) < 0.3  # away from the antipode where images compete
    assert np.max(np.abs((gf[0] - d0 / (2 * tau)) * inner)) <= 1e-6 / tau
    assert np.all(gf[3] == 0.0)  # inactive direction


def test_grad_log_kernel_is_gradient_of_minus_log_u(grid32):
    # compare with a stencil gradient of -log(u), away from the antipode
    # where log u has a kink-like third derivative
    tau = 5e-3
    spec = HeatKernelSpec(center=(7, 23), t0=tau)
    u = heat_kernel(grid32, spec, 0.0)
    gf = grad_log_kernel(grid32, spec, 0.0)
    for pos, dim in enumerate(grid32.active_dims):
        num = -partial(grid32, np.log(u), dim)
        mask = np.abs(grid32.lifted_displacement(dim, spec.center[pos])) < 0.3
        err = np.max(np.abs((num - gf[dim]) * mask))
        assert err <= 2e-3 * np.max(np.abs(gf[dim]))


def test_theta_trivial_cases(grid32):
    spec = HeatKernelSpec(center=(16, 16), t0=0.01)
    assert theta(grid32, grid32.zeros(2), spec, 0.0) == 0.0
    t = grid32.zeros(2)
    t[0, 1] = 2.0  # uniform |T|^2 = 4 gives theta = 4 (t0 - t)
    assert theta(grid32, t, spec, 0.0) == pytest.approx(4.0 * 0.01, rel=1e-8)
    with pytest.raises(ValueError):
        theta(grid32, t, spec, 0.02)


def test_theta_nonnegative_and_linear_in_energy_density(grid32):
    s = random_band_state(grid32, 0.3, seed=5)
    t2 = torsion_of_state(s)
    spec = HeatKernelSpec(center=(16, 16), t0=0.01)
    th = theta(grid32, t2, spec, 0.0)
    assert th >= 0.0
    assert theta(grid32, np.sqrt(2.0) * t2, spec, 0.0) == pytest.approx(2.0 * th)


def test_theta_parabolic_rescaling_invariance(grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=3),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    resc = parabolic_rescale(traj, 2.0)
    t1 = torsion_of_state(traj.states[0])
    t2 = torsion_of_state(resc.states[0])
    th1 = theta(traj.grid, t1, HeatKernelSpec(center=(4, 11), t0=0.01), 0.0)
    th2 = theta(resc.grid, t2, HeatKernelSpec(center=(4, 11), t0=0.04), 0.0)
    assert th2 == pytest.approx(th1, rel=1e-6)


def test_entropy_trivial_and_uniform(tables, grid16):
    kernels = entropy_tables(grid16, 0.02)
    assert entropy(kernels, grid16.zeros(2)).value == 0.0
    t = grid16.zeros(2)
    t[2, 3] = 1.0  # uniform |T|^2 = 1: objective is t, argmax at sigma
    out = entropy(kernels, t)
    assert out.value == pytest.approx(0.02, rel=1e-8)
    assert out.scale == pytest.approx(0.02)


def test_entropy_rescaling_invariance(grid16):
    s = random_band_state(grid16, 0.3, seed=3)
    t1 = torsion_of_state(s)
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=3),
        dt=2e-4,
        t_end=4e-4,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    resc = parabolic_rescale(traj, 2.0)
    t2 = torsion_of_state(resc.states[0])
    e1 = entropy(entropy_tables(grid16, 0.01), t1)
    e2 = entropy(entropy_tables(resc.grid, 0.04), t2)
    assert e2.value == pytest.approx(e1.value, rel=1e-6)
    assert e2.center == e1.center
    assert e2.scale == pytest.approx(4.0 * e1.scale, rel=1e-12)


def _entropy_per_center_kernels(grid, torsion, sigma, sample_stride, n_scales=12):
    """The entropy loop with a fresh heat_kernel at every (center, scale)."""
    tsq = np.einsum("pq...,pq...->...", torsion, torsion)
    scales = np.geomspace(0.01 * sigma, sigma, n_scales)
    best = (0.0, (0,) * grid.k, float(scales[-1]))
    for center in itertools.product(range(0, grid.n, sample_stride), repeat=grid.k):
        for tau in scales:
            u = heat_kernel(grid, HeatKernelSpec(center=center, t0=float(tau)), 0.0)
            val = float(tau) * integrate(grid, tsq * u)
            if val > best[0]:
                best = (val, tuple(center), float(tau))
    return best


# the entropy samples every max(1, n // 8)-th index: the stride each row states
@pytest.mark.parametrize(
    "n, dims, stride, sigma, uniform",
    [
        (12, (0,), 1, 0.01, False),
        (32, (0, 1), 4, 0.01, False),
        (24, (0, 1), 3, 0.01, False),
        (8, (0, 1), 1, 0.01, False),
        (16, (0, 2, 5), 2, 0.02, False),
        (16, (0, 1), 2, 0.5, False),  # needs more images than IMAGE_RADIUS
        (16, (0, 1), 2, 0.01, True),  # every center ties up to round-off
        (24, (3,), 3, 0.01, False),
    ],
)
def test_entropy_tables_equal_per_center_kernels_bit_for_bit(n, dims, stride, sigma, uniform):
    grid = Grid(length=1.0, n=n, active_dims=dims)
    assert max(1, n // 8) == stride
    if uniform:
        torsion = grid.zeros(2)
        torsion[2, 3] = 0.7
    else:
        torsion = np.random.default_rng(n + stride).standard_normal((7, 7) + grid.shape)
    if sigma > 0.1:
        assert diagnostics._auto_radius(grid.length, sigma) > diagnostics.IMAGE_RADIUS
    got = entropy(entropy_tables(grid, sigma), torsion)
    want = _entropy_per_center_kernels(grid, torsion, sigma, stride)
    assert repr((got.value, got.center, got.scale)) == repr(want)


# (length, n, active_dims, stride): 1-D, 2-D and 3-D grids with non-unit periods, whose
# entropy samples every stride-th index (max(1, n // 8)): strides 1, 2 and 3 in each
ENTROPY_GRIDS = [
    (0.5, 12, (0,), 1),
    (0.5, 24, (3,), 3),
    (2.0, 16, (0, 1), 2),
    (2.0, 24, (1, 4), 3),
    (1.5, 8, (0, 2, 5), 1),
    (1.5, 24, (0, 2, 5), 3),
    (0.5, 16, (3,), 2),
    (2.0, 8, (0, 1), 1),
    (1.5, 16, (0, 2, 5), 2),
]

# (length, n, active_dims, stride): the kernels' centers are every stride-th index
ORACLE_GRIDS = [
    (0.5, 12, (0,), 1),
    (0.5, 12, (3,), 3),
    (2.0, 16, (0, 1), 2),
    (2.0, 16, (1, 4), 3),
    (1.5, 8, (0, 2, 5), 1),
    (1.5, 8, (0, 2, 5), 3),
]


def _oracle_sigmas(length):
    return (1e-3, 0.1 * length**2, length**2)


@pytest.mark.parametrize("length, n, dims, stride", ENTROPY_GRIDS)
def test_entropy_equals_full_grid_oracle_byte_for_byte(length, n, dims, stride):
    grid = Grid(length=length, n=n, active_dims=dims)
    assert max(1, n // 8) == stride
    torsion = np.random.default_rng(n * stride).standard_normal((7, 7) + grid.shape)
    for sigma in _oracle_sigmas(length):
        got = entropy(entropy_tables(grid, sigma), torsion)
        want = oracles.entropy(grid, torsion, sigma, sample_stride=stride)
        assert repr((got.value, got.center, got.scale)) == repr(want), sigma


@pytest.mark.parametrize("length, n, dims, stride", ORACLE_GRIDS)
def test_kernels_equal_full_grid_oracle_byte_for_byte(monkeypatch, length, n, dims, stride):
    grid = Grid(length=length, n=n, active_dims=dims)
    torsion = np.random.default_rng(n + stride).standard_normal((7, 7) + grid.shape)
    lattice = list(itertools.product(range(0, n, stride), repeat=grid.k))
    specs = [
        HeatKernelSpec(center=center, t0=t0)
        for center in lattice[:: max(1, len(lattice) // 4)]
        for t0 in _oracle_sigmas(length)
    ]

    def evaluate():
        out = []
        for spec in specs:
            for t in (0.0, 0.5 * spec.t0):
                u = heat_kernel(grid, spec, t)
                out.append((u.shape, u.tobytes(), repr(theta(grid, torsion, spec, t))))
                out.append(repr(monotonicity_terms(grid, torsion, spec, t)))
        return out

    got = evaluate()
    monkeypatch.setattr(diagnostics, "_product_kernel", oracles.product_kernel)
    assert got == evaluate()


@pytest.mark.parametrize(
    "length, n, dims, stride, sigma",
    [
        (1.0, 24, (0,), 3, 0.01),
        (1.0, 16, (0, 1), 2, 0.01),
        (2.0, 32, (0, 1), 4, 4.0),
        (1.0, 8, (0, 2, 5), 1, 0.01),
    ],
)
def test_entropy_ties_go_to_the_first_center(length, n, dims, stride, sigma):
    # a translation-invariant |T|^2: each center's table is the first one's
    # rolled, so some centers tie exactly (asserted below)
    grid = Grid(length=length, n=n, active_dims=dims)
    assert max(1, n // 8) == stride
    torsion = grid.zeros(2)
    torsion[2, 3] = 0.7
    tsq = np.einsum("pq...,pq...->...", torsion, torsion)
    scales = [float(tau) for tau in np.geomspace(0.01 * sigma, sigma, 12)]
    values = []
    for center in itertools.product(range(0, n, stride), repeat=grid.k):
        for tau in scales:
            ws = [diagnostics._wrapped_parts(length, tau, grid.displacement(c))[0] for c in center]
            values.append((tau * integrate(grid, tsq * oracles.product_kernel(grid, ws)), center, tau))
    top = max(v for v, _, _ in values)
    tied = [entry for entry in values if entry[0] == top]
    assert len({center for _, center, _ in tied}) > 1
    got = entropy(entropy_tables(grid, sigma), torsion)
    assert (got.value, got.center, got.scale) == tied[0]


def _count_wrapped_parts(monkeypatch):
    calls = []
    real = diagnostics._wrapped_parts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(diagnostics, "_wrapped_parts", counted)
    return calls


def test_entropy_builds_one_table_per_scale_and_sampled_index(monkeypatch, grid32):
    calls = _count_wrapped_parts(monkeypatch)
    torsion = np.random.default_rng(3).standard_normal((7, 7) + grid32.shape)
    entropy(entropy_tables(grid32, 0.01), torsion)
    # 12 scales x 8 sampled indices, not one table per center, scale and axis (1536)
    assert len(calls) == 96
    assert len({(args[1], float(args[2][0])) for args in calls}) == 96


@pytest.mark.parametrize("scheme", ["fx", "direct"])
def test_a_run_builds_the_entropy_tables_once(monkeypatch, grid32, scheme):
    calls = _count_wrapped_parts(monkeypatch)
    dt = 0.2 * grid32.h * grid32.h / (2 * grid32.k)
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=7),
        dt=dt,
        t_end=8 * dt,
        scheme=scheme,
        diagnostics_every=2,
        entropy_sigma=0.01,
    )
    traj = getattr(run(cfg), scheme)
    assert len(traj.records) == 5
    assert all(rec["entropy_estimate"] > 0 for rec in traj.records)
    # 12 scales x 8 sampled indices for the whole run, not for each of its 5 records
    assert len(calls) == 12 * 8


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=1.0, n=16, active_dims=(3,)),
        Grid(length=1.0, n=16, active_dims=(0, 1)),
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
    ],
    ids=["1-D", "2-D", "3-D"],
)
def test_records_reusing_the_tables_equal_the_entropy_oracle_per_snapshot(grid):
    sigma = 0.015625
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=11),
        dt=dt,
        t_end=6 * dt,
        scheme="both",
        diagnostics_every=2,
        snapshot_every=2,
        entropy_sigma=sigma,
    )
    result = run(cfg)
    routes = [
        (result.fx, [torsion_rows_of_state(s) for s in result.fx.states]),
        (result.direct, [torsion_rows_from_sorted(grid, s3) for s3 in result.direct.sorted_phis]),
    ]
    for traj, snapshots in routes:
        assert len(traj.records) == len(snapshots) == 4
        for rec, rows in zip(traj.records, snapshots):
            want = oracles.entropy(grid, rows, sigma, sample_stride=max(1, grid.n // 8))[0]
            assert repr(rec["entropy_estimate"]) == repr(want)


def test_entropy_with_prebuilt_tables_equals_its_own_build(grid32):
    rng = np.random.default_rng(8)
    for sigma in (0.01, 0.05):
        kernels = entropy_tables(grid32, sigma)
        # one set of tables serves several torsions, as in a run's records
        for _ in range(2):
            torsion = rng.standard_normal((2, 7) + grid32.shape)
            got = entropy(kernels, torsion)
            assert repr(got) == repr(entropy(entropy_tables(grid32, sigma), torsion))


@pytest.mark.parametrize("n, stride", [(4, 1), (14, 1), (16, 2), (24, 3), (32, 4), (62, 7)])
def test_entropy_tables_sample_every_eighth_of_an_axis_at_twelve_scales(n, stride):
    sigma = 0.3
    grid = Grid(length=2.0, n=n, active_dims=(1, 4))
    kernels = entropy_tables(grid, sigma)
    assert kernels.grid == grid
    assert kernels.indices == range(0, n, stride)
    # 12 scales, geometric from sigma / 100 up to sigma
    scales = kernels.scales
    assert len(scales) == 12 and scales == sorted(scales)
    assert scales[0] == pytest.approx(sigma / 100, rel=1e-15) and scales[-1] == sigma
    assert np.allclose(np.diff(np.log(scales)), math.log(100.0) / 11, rtol=1e-12, atol=0)
    for table in (*kernels.kernels, *kernels.heads):
        assert list(table) == list(range(0, n, stride))


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=0.5, n=24, active_dims=(3,)),
        Grid(length=2.0, n=16, active_dims=(1, 4)),
        Grid(length=1.5, n=8, active_dims=(0, 2, 5)),
    ],
    ids=["1-D", "2-D", "3-D"],
)
def test_entropy_starts_each_kernel_from_the_tables_heads(monkeypatch, grid):
    # record strides 3, 2 and 1
    sigma, stride = 0.1 * grid.length**2, max(1, grid.n // 8)
    kernels = entropy_tables(grid, sigma)
    # each head is the oracle kernel's first factor L^-(7-k) w_c, along the first axis
    ones = [np.ones(grid.n)] * (grid.k - 1)
    for table, heads in zip(kernels.kernels, kernels.heads):
        assert heads.keys() == table.keys()
        for c, w in table.items():
            first = oracles.product_kernel(grid, [w] + ones)[(...,) + (0,) * (grid.k - 1)]
            assert heads[c].tobytes() == first.tobytes()
    torsion = np.random.default_rng(grid.n).standard_normal((grid.k, 7) + grid.shape)
    want = repr(entropy(kernels, torsion))

    def forbidden(*args, **kwargs):
        raise AssertionError("_product_kernel called")

    reads = []
    weight = grid.cell_weight

    def cell_weight(self):
        reads.append(self)
        return weight

    monkeypatch.setattr(diagnostics, "_product_kernel", forbidden)
    monkeypatch.setattr(Grid, "cell_weight", property(cell_weight))
    got = entropy(kernels, torsion)
    assert reads == [grid]
    assert repr(got) == want
    assert repr((got.value, got.center, got.scale)) == repr(
        oracles.entropy(grid, torsion, sigma, sample_stride=stride)
    )


def test_monotonicity_residual_refines_and_sign():
    def study(n, dt, steps):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        cfg = FlowConfig(
            grid=g,
            initial=InitialSpec(family="localized", amplitude=0.2, width=0.2),
            dt=dt,
            t_end=steps * dt,
            scheme="fx",
            cfl_safety=1.0,
            snapshot_every=1,
            diagnostics_every=steps,
        )
        traj = run(cfg).fx
        assert not traj.events
        spec = HeatKernelSpec(center=(n // 2, n // 2), t0=steps * dt + (1.0 / 8.0) ** 2)
        rows = monotonicity_residual(traj, spec)
        return rows[len(rows) // 2]

    r16 = study(16, 2e-4, 8)
    r32 = study(32, 1e-4, 16)
    assert abs(r16["residual"]) / abs(r32["residual"]) >= 3.0
    # localized data at scale t0 - t <= (L/8)^2: the localized energy decays
    for row in (r16, r32):
        assert row["dtheta_dt"] <= row["hessian_correction"] + 1e-8
        assert row["term1"] <= 0.0


def test_monotonicity_terms_zero_for_zero_torsion(tables, grid16):
    spec = HeatKernelSpec(center=(8, 8), t0=0.01)
    terms = monotonicity_terms(grid16, grid16.zeros(2), spec, 0.0)
    assert terms["term1"] == 0.0 and terms["term2"] == 0.0


def test_monotonicity_residual_needs_snapshots(grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
        snapshot_every=0,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    with pytest.raises(ValueError):
        monotonicity_residual(traj, HeatKernelSpec(center=(8, 8), t0=1.0))


def test_hessian_correction_small_at_localized_scale(grid32):
    # at t0 - t = (L/8)^2 the kernel Hessian term is orders below the
    # gradient term for localized data
    s = localized_state(grid32, 0.2, width=0.2)
    t2 = torsion_of_state(s)
    spec = HeatKernelSpec(center=(16, 16), t0=(1.0 / 8.0) ** 2)
    terms = monotonicity_terms(grid32, t2, spec, 0.0)
    assert abs(terms["term2"]) <= 1e-2 * abs(terms["term1"])


def test_decay_rate_paths(grid32):
    # torsion-free: divergence identically zero, rate undefined
    out = decay_rate([0.0, 0.1], [0.0, 0.0], [0.0, 0.0], 1.0)
    assert out["hypothesis_ok"] and out["rate"] is None
    # hypothesis violated
    out = decay_rate([0.0, 0.1], [1.0, 0.9], [10.0, 10.0], 1.0)
    assert not out["hypothesis_ok"]
    # single-mode run: rate comfortably above Lambda/2
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=1e-4,
        t_end=0.02,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=10,
    )
    recs = run(cfg).fx.records
    out = decay_rate(
        [r["t"] for r in recs],
        [r["div_T_l2"] for r in recs],
        [r["sup_T"] for r in recs],
        1.0,
    )
    lam = (2.0 * math.pi) ** 2
    assert out["hypothesis_ok"]
    assert out["rate"] >= 0.9 * lam / 2.0
    # convexity: the divergence norm decreases monotonically on such runs
    series = [r["div_T_l2"] for r in recs]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(series, series[1:]))


def test_shi_monitor_bounded_along_run(grid32):
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=1e-4,
        t_end=0.01,
        scheme="fx",
        cfl_safety=0.9,
    )
    records = run(cfg).fx.records
    # the Shi quantities sup|grad^m T| t^(m/2) / sup|T(0)| of every record after t = 0
    assert "shi_quantities" not in records[0]
    rows = [rec["shi_quantities"] for rec in records[1:]]
    assert len(rows) == 10
    assert all(np.isfinite(r["m1"]) and np.isfinite(r["m2"]) for r in rows)
    assert max(r["m1"] for r in rows) < 10.0
    assert max(r["m2"] for r in rows) < 10.0


def test_shi_sups_match_stacked_gradients():
    from g2flow.diagnostics import _shi_sups

    for grid in (
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
        Grid(length=1.0, n=16, active_dims=(0, 1), stencil_order=4),
    ):
        torsion = torsion_of_state(random_band_state(grid, 0.4, seed=3))
        g1 = np.stack([partial(grid, torsion, d) for d in grid.active_dims])
        g2 = np.stack([partial(grid, g1, d) for d in grid.active_dims])
        m1 = float(np.sqrt(np.max(np.sum(g1 * g1, axis=(0, 1, 2)))))
        m2 = float(np.sqrt(np.max(np.sum(g2 * g2, axis=(0, 1, 2, 3)))))
        got1, got2 = _shi_sups(grid, torsion[list(grid.active_dims)])
        assert m1 > 0 and m2 > 0
        assert abs(got1 - m1) <= 1e-12 * m1
        assert abs(got2 - m2) <= 1e-12 * m2


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=1.0, n=16, active_dims=(3,)),
        Grid(length=1.0, n=32, active_dims=(0, 1)),
        Grid(length=1.0, n=16, active_dims=(1, 4), stencil_order=4),
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
    ],
)
def test_shi_sups_equal_all_rows_sums(grid):
    from g2flow.diagnostics import _shi_sups

    torsion = torsion_of_state(random_band_state(grid, 0.4, seed=5))
    # the same sums over all seven rows p, zero rows included
    sq1 = np.zeros(grid.shape)
    sq2 = np.zeros(grid.shape)
    for a in grid.active_dims:
        da = partial(grid, torsion, a)
        sq1 += np.einsum("pq...,pq...->...", da, da)
        for b in grid.active_dims:
            dba = partial(grid, da, b)
            sq2 += np.einsum("pq...,pq...->...", dba, dba)
    want = (float(np.sqrt(np.max(sq1))), float(np.sqrt(np.max(sq2))))
    assert _shi_sups(grid, torsion[list(grid.active_dims)]) == want
    assert want[0] > 0 and want[1] > 0


def test_records_have_contracted_keys(grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        cfl_safety=0.9,
        theta_probes=(((8, 8), 0.5),),
        entropy_sigma=0.01,
    )
    traj = run(cfg).fx
    rec = traj.records[-1]
    for key in ("t", "energy", "sup_T", "div_T_l2", "constraint_defect", "events"):
        assert key in rec
    assert rec["theta"][0][0] == [8, 8]
    assert rec["entropy_estimate"] >= 0.0
    assert "shi_quantities" in rec


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=1.0, n=16, active_dims=(3,)),
        Grid(length=1.0, n=16, active_dims=(0, 1)),
        Grid(length=1.0, n=16, active_dims=(1, 4), stencil_order=4),
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
    ],
)
def test_record_from_the_active_rows_equals_the_dense_sums(grid):
    dense = torsion_of_state(random_band_state(grid, 0.4, seed=5))
    rows = dense[list(grid.active_dims)]
    center, t0, sigma = (grid.n // 2,) * grid.k, 0.05, 0.01
    kernels = entropy_tables(grid, sigma)
    rec = record_for_torsion(
        grid, rows, 0.01, 0.0, theta_probes=[(center, t0)], sup_t_reference=1.0, ent_tables=kernels
    )
    # each quantity as it is computed on the dense tensor, its zero rows included
    divt = div2(grid, dense)
    want = {
        "energy": energy(grid, dense),
        "sup_T": float(np.sqrt(np.max(np.sum(dense * dense, axis=(0, 1))))),
        "div_T_l2": integrate(grid, np.einsum("q...,q...->...", divt, divt)),
        "theta": [[list(center), t0, theta(grid, dense, HeatKernelSpec(center, t0), 0.01)]],
        "entropy_estimate": entropy(kernels, dense).value,
    }
    for key, value in want.items():
        assert repr(rec[key]) == repr(value), key
    assert rec["energy"] > 0 and set(rec["shi_quantities"]) == {"m1", "m2"}
    # a record takes the rows only: the dense tensor would be read as k rows
    with pytest.raises(ValueError, match="active rows"):
        record_for_torsion(grid, dense, 0.01, 0.0)


@pytest.mark.parametrize(
    "grid, bound",
    [(Grid(length=1.0, n=128), 5.5), (Grid(length=1.0, n=16, active_dims=(0, 1, 2)), 6.5)],
    ids=["128^2", "16^3"],
)
def test_a_record_after_t0_allocates_little(grid, bound):
    state = random_band_state(grid, 0.3, seed=2)
    tracemalloc.start()
    try:
        rec = record_for_state(state, 1e-4, sup_t_reference=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(rec["shi_quantities"]) == {"m1", "m2"}
    # the k torsion rows (1.75 u at 128^2, 2.63 u at 16^3), the two derivative
    # buffers of the Shi sums and k + 3 grid scalars: about 4.2 u and 5.3 u
    # (a record holding stacked gradients peaked at 6.5 u and 9.5 u)
    assert peak <= bound * state.u.nbytes


def test_sup_norm_takes_the_rank(grid16):
    dense = torsion_of_state(random_band_state(grid16, 0.4, seed=5))
    rows = dense[list(grid16.active_dims)]
    # (2, 7, n, n) is a rank-2 field: the norm sums all 14 components of a point
    assert sup_norm(rows, 2) == sup_norm(dense, 2)
    assert sup_norm(rows, 2) > float(np.max(np.abs(rows)))
    assert sup_norm(rows[0, 3], 0) == float(np.max(np.abs(rows[0, 3])))
    grad = np.stack([partial(grid16, dense, d) for d in grid16.active_dims])
    assert sup_norm(grad, 3) == float(np.sqrt(np.max(np.sum(grad * grad, axis=(0, 1, 2)))))
