"""Finite-difference calculus on the periodic reduced-dimension lattice."""

import math
import struct

import numpy as np
import pytest

from g2flow.grid import (
    Grid,
    div2,
    grad_scalar,
    grad_vector,
    integrate,
    laplacian,
    load_checkpoint,
    partial,
    save_checkpoint,
)


def wave(grid, dim, k=1):
    return np.sin(2.0 * np.pi * k * grid.coordinate(dim) / grid.length)


def cowave(grid, dim, k=1):
    return np.cos(2.0 * np.pi * k * grid.coordinate(dim) / grid.length)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(length=-1.0, n=16)
    with pytest.raises(ValueError):
        Grid(length=1.0, n=15)
    with pytest.raises(ValueError):
        Grid(length=1.0, n=16, active_dims=())
    with pytest.raises(ValueError):
        Grid(length=1.0, n=16, stencil_order=3)
    g = Grid(length=2.0, n=16, active_dims=(3, 1))
    assert g.active_dims == (1, 3)
    assert g.h == pytest.approx(0.125)


@pytest.mark.parametrize(
    "n, dims",
    [(16.0, (0, 1)), (True, (0,)), (16, (0.5, 1)), (16, (1.0, 2)), (16, (True, 2)), (16, ("1",))],
)
def test_grid_rejects_non_integers(n, dims):
    # a float or bool is never cast: (0.5, 1) would silently become (0, 1)
    with pytest.raises(ValueError):
        Grid(length=1.0, n=n, active_dims=dims)


@pytest.mark.parametrize(
    "length", [math.nan, math.inf, 1e45, 1e100, 1e308, 1e-45, 1e-300, 5e-324]
)
def test_grid_rejects_periods_without_a_normal_volume(length):
    # L^7 or the cell weight h^k L^(7-k) overflows, underflows or is NaN
    with pytest.raises(ValueError, match="grid period"):
        Grid(length=length, n=16)


def test_grid_accepts_the_extreme_normal_periods():
    for length in (1e44, 1e-43, 3):
        grid = Grid(length=length, n=16, active_dims=(0, 1, 2))
        assert 0 < grid.cell_weight < math.inf and 0 < grid.length**7 < math.inf


def test_grid_accepts_numpy_integers():
    g = Grid(length=1.0, n=np.int64(16), active_dims=(np.int32(3), np.int64(1)))
    assert g == Grid(length=1.0, n=16, active_dims=(1, 3))
    assert g.active_dims == (1, 3) and all(type(d) is int for d in g.active_dims)
    assert g.zeros(1).shape == (7, 16, 16)


def test_partial_constant_and_inactive(grid16):
    const = np.ones(grid16.shape)
    assert np.all(partial(grid16, const, 0) == 0.0)
    assert np.all(partial(grid16, wave(grid16, 0), 5) == 0.0)


@pytest.mark.parametrize("order", [2, 4])
def test_partial_converges_at_advertised_order(order):
    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=order)
        u = wave(g, 0)
        exact = 2.0 * np.pi * cowave(g, 0)
        errs.append(np.max(np.abs(partial(g, u, 0) - exact)))
    ratio = errs[0] / errs[1]
    assert ratio >= (3.5 if order == 2 else 14.0)


def test_partials_commute(grid16):
    # the stencils commute as linear maps; floating point differs only in
    # the association order of the four corner samples
    u = wave(grid16, 0) * cowave(grid16, 1, 2)
    a = partial(grid16, partial(grid16, u, 0), 1)
    b = partial(grid16, partial(grid16, u, 1), 0)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("order", [2, 4])
def test_laplacian_eigenfunction(order):
    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=order)
        u = wave(g, 0)
        exact = -((2.0 * np.pi) ** 2) * u
        errs.append(np.max(np.abs(laplacian(g, u) - exact)))
    assert errs[0] / errs[1] >= (3.5 if order == 2 else 14.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_order_2_laplacian_of_a_constant_is_exactly_zero(k, rng):
    # the neighbour sums 2c, 4c, fl(6c), 8c, fl(10c) equal fl(2k c), the centre
    g = Grid(length=1.3, n=4, active_dims=tuple(range(7 - k, 7)))
    arr = np.broadcast_to(rng.standard_normal(8).reshape((8,) + (1,) * k), (8,) + g.shape)
    assert np.all(laplacian(g, arr) == 0.0)


def test_div2_zero_and_product_rule(grid32):
    assert np.all(div2(grid32, grid32.zeros(2)) == 0.0)
    # T_pq = d_p(u) v_q with constant v: Div T = (Lap u) v
    u = wave(grid32, 0) * cowave(grid32, 1)
    v = np.arange(1.0, 8.0)
    t = np.einsum("p...,q->pq...", grad_scalar(grid32, u), v)
    got = div2(grid32, t)
    # oracle: compact laplacian differs from div(grad .) at stencil order;
    # compare against the analytic laplacian on two grids
    exact = -2.0 * (2.0 * np.pi) ** 2 * np.einsum("...,q->q...", u, v)
    err32 = np.max(np.abs(got - exact))
    g64 = Grid(length=1.0, n=64, active_dims=(0, 1))
    u64 = wave(g64, 0) * cowave(g64, 1)
    t64 = np.einsum("p...,q->pq...", grad_scalar(g64, u64), v)
    exact64 = -2.0 * (2.0 * np.pi) ** 2 * np.einsum("...,q->q...", u64, v)
    err64 = np.max(np.abs(div2(g64, t64) - exact64))
    assert err32 / err64 >= 3.5


def test_div2_of_vector_gradient_matches_laplacian():
    from g2flow.states import random_band_state

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        x = random_band_state(g, 0.5, seed=4).x
        errs.append(float(np.max(np.abs(div2(g, grad_vector(g, x)) - laplacian(g, x)))))
    assert errs[0] / errs[1] >= 3.0


def test_integrate_constants_and_waves(grid32):
    L = grid32.length
    assert integrate(grid32, np.ones(grid32.shape)) == pytest.approx(L**7)
    assert integrate(grid32, wave(grid32, 0)) == pytest.approx(0.0, abs=1e-14)
    assert integrate(grid32, wave(grid32, 0) ** 2) == pytest.approx(L**7 / 2.0)


def test_integrate_inactive_volume_factor():
    g = Grid(length=2.0, n=8, active_dims=(4,))
    assert integrate(g, np.ones(g.shape)) == pytest.approx(2.0**7)


@pytest.mark.parametrize("order", [2, 4])
def test_discrete_integration_by_parts_exact(order, rng):
    g = Grid(length=1.0, n=16, active_dims=(0, 1), stencil_order=order)
    u = rng.standard_normal(g.shape)
    v = rng.standard_normal(g.shape)
    lhs = integrate(g, u * partial(g, v, 1))
    rhs = -integrate(g, partial(g, u, 1) * v)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_grad_vector_layout(grid16):
    x = grid16.zeros(1)
    x[3] = wave(grid16, 1)
    g = grad_vector(grid16, x)
    assert np.all(g[2] == 0.0)  # inactive direction row
    assert np.allclose(g[1, 3], partial(grid16, x[3], 1))
    assert np.all(g[1, 4] == 0.0)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    g = Grid(length=1.5, n=8, active_dims=(0, 2, 5), stencil_order=4)
    f = rng.standard_normal(g.shape)
    x = rng.standard_normal((7,) + g.shape)
    path = tmp_path / "state.g2fl"
    save_checkpoint(path, g, np.concatenate((f[None], x)))
    g2, u2 = load_checkpoint(path)
    assert g2 == g
    assert np.array_equal(f, u2[0])
    assert np.array_equal(x, u2[1:])
    save_checkpoint(tmp_path / "again.g2fl", g2, u2)
    assert (tmp_path / "state.g2fl").read_bytes() == (tmp_path / "again.g2fl").read_bytes()
    # the layout: magic, version 1, N, L, active-dims bitmask, stencil order,
    # then f, then X component-major, as little-endian float64
    header = b"G2FL" + struct.pack("<IIdBB", 1, 8, 1.5, 0b100101, 4)
    assert path.read_bytes() == header + f.astype("<f8").tobytes() + x.astype("<f8").tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_lifted_displacement_range():
    g = Grid(length=1.0, n=8, active_dims=(0,))
    d = g.lifted_displacement(0, 3)
    assert d.max() == pytest.approx(0.5)  # endpoint +L/2 kept
    assert d.min() > -0.5
    assert d.reshape(-1)[3] == 0.0


def roll_partial(grid, arr, dim):
    """The np.roll form of ``partial`` that the slice stencils replaced."""
    if dim not in grid.active_dims:
        return np.zeros_like(arr)
    ax, h = grid.axis_of(dim, arr.ndim), grid.h
    if grid.stencil_order == 2:
        return (np.roll(arr, -1, axis=ax) - np.roll(arr, 1, axis=ax)) / (2.0 * h)
    return (
        -np.roll(arr, -2, axis=ax)
        + 8.0 * np.roll(arr, -1, axis=ax)
        - 8.0 * np.roll(arr, 1, axis=ax)
        + np.roll(arr, 2, axis=ax)
    ) / (12.0 * h)


def roll_laplacian(grid, arr):
    """The np.roll form of ``laplacian``: the neighbour sums added up in
    direction order, minus the centre once, divided once."""
    h2 = grid.h * grid.h
    total = None
    for dim in grid.active_dims:
        ax = grid.axis_of(dim, arr.ndim)
        if grid.stencil_order == 2:
            sums = np.roll(arr, -1, axis=ax) + np.roll(arr, 1, axis=ax)
        else:
            sums = (
                16.0 * (np.roll(arr, -1, axis=ax) + np.roll(arr, 1, axis=ax))
                - np.roll(arr, -2, axis=ax)
                - np.roll(arr, 2, axis=ax)
            )
        total = sums if total is None else total + sums
    if grid.stencil_order == 2:
        return (total - 2.0 * grid.k * arr) / h2
    return (total - 30.0 * grid.k * arr) / (12.0 * h2)


@pytest.mark.parametrize("order, n", [(2, 2), (2, 8), (4, 6), (4, 10)])
@pytest.mark.parametrize("dims", [(3,), (0, 1), (0, 2, 5)])
def test_slice_stencils_equal_roll_stencils(order, n, dims, rng):
    g = Grid(length=1.3, n=n, active_dims=dims, stencil_order=order)
    for rank in range(4):
        arr = rng.standard_normal((7,) * rank + g.shape)
        # signed zeros must come out as the roll forms give them
        arr[arr > 1.0], arr[arr < -1.0] = -0.0, 0.0
        for field in (arr, np.swapaxes(arr, -1, 0)):  # contiguous and strided input
            for dim in range(7):  # active and inactive directions
                got, want = partial(g, field, dim), roll_partial(g, field, dim)
                assert np.array_equal(got, want), (rank, dim)
                assert got.tobytes() == want.tobytes(), (rank, dim)
            got, want = laplacian(g, field), roll_laplacian(g, field)
            assert np.array_equal(got, want), rank
            assert got.tobytes() == want.tobytes(), rank


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dims", [(3,), (0, 2)])
def test_stencils_write_into_given_buffers(order, dims, rng):
    g = Grid(length=1.3, n=8, active_dims=dims, stencil_order=order)
    arr = rng.standard_normal((3,) + g.shape)
    for dim in range(7):  # active and inactive directions
        out = np.full_like(arr, np.nan)
        assert partial(g, arr, dim, out=out) is out
        assert out.tobytes() == partial(g, arr, dim).tobytes()
    out, term = np.full_like(arr, np.nan), np.full_like(arr, np.nan)
    assert laplacian(g, arr, out, term) is out
    assert out.tobytes() == laplacian(g, arr).tobytes()
    # in lattice units the stencil stops before its one division by laplacian_scale
    lattice = laplacian(g, arr, lattice=True)
    assert (lattice / g.laplacian_scale).tobytes() == out.tobytes()
    # the divergence of the active rows alone equals that of the dense tensor
    t = g.zeros(2)
    t[list(dims)] = rng.standard_normal((g.k, 7) + g.shape)
    assert div2(g, t[list(dims)], rows=True).tobytes() == div2(g, t).tobytes()


def test_stencils_refuse_an_out_that_is_not_c_contiguous(grid16, rng):
    # the interior pass writes through out.reshape(-1), a copy of a strided out:
    # the stencil used to return with only the wrapped edges of out written
    arr = rng.standard_normal((8,) + grid16.shape)
    out = np.empty(arr.shape).swapaxes(1, 2)  # a square grid: arr's shape, transposed layout
    assert out.shape == arr.shape and not out.flags.c_contiguous
    with pytest.raises(ValueError, match="C-contiguous"):
        partial(grid16, arr, 0, out=out)
    with pytest.raises(ValueError, match="C-contiguous"):
        laplacian(grid16, arr, out)
