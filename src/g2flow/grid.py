"""Periodic lattice on the flat 7-torus with reduced active dimensions.

Fields vary only along a configurable subset of the seven coordinate
directions; derivatives along the inactive directions vanish identically.
Tensor fields are stored structure-of-arrays: component indices first,
grid axes last, so a rank-R field over a k-dimensional active grid has
shape (7,)*R + (n,)*k.

Central finite differences (order 2 or 4) keep discrete integration by
parts exact on the periodic lattice, which the gradient-flow energy
identities rely on.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "is_integer",
    "partial",
    "grad_scalar",
    "grad_vector",
    "div2",
    "laplacian",
    "integrate",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"G2FL"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = "<IIdBB"  # version, N, L, active-dims bitmask, stencil order


def is_integer(value) -> bool:
    """An int or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid:
    """Periodic rectangular lattice with period ``length`` per direction.

    Only ``active_dims`` (a subset of 0..6) carry grid axes; the total
    7-torus volume is length**7 regardless of how many are active.
    """

    length: float
    n: int
    active_dims: tuple[int, ...] = (0, 1)
    stencil_order: int = 2

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"grid period must be positive, got {self.length!r}")
        if not is_integer(self.n) or self.n <= 0 or self.n % 2 != 0:
            raise ValueError("points per dimension must be a positive even integer")
        dims = self.active_dims
        if not (len(dims) and all(is_integer(d) and 0 <= d <= 6 for d in dims)):
            raise ValueError("active_dims must be a nonempty subset of the integers 0..6")
        object.__setattr__(self, "active_dims", tuple(sorted(set(int(d) for d in dims))))
        # every integral scales by these two: neither may overflow, underflow or be NaN
        try:
            scales = (self.length**7, self.cell_weight)
        except OverflowError:
            scales = (math.inf,)
        if not all(sys.float_info.min <= s <= sys.float_info.max for s in scales):
            raise ValueError(
                f"grid period {self.length!r} gives a torus volume or cell weight "
                "outside the normal floats"
            )
        if self.stencil_order not in (2, 4):
            raise ValueError("stencil_order must be 2 or 4")
        if self.stencil_order == 4 and self.n < 6:
            raise ValueError("order-4 stencils need at least 6 points per dimension")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def k(self) -> int:
        return len(self.active_dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.k

    @property
    def laplacian_scale(self) -> float:
        """The Laplacian stencil's one divisor: h^2 at order 2, 12 h^2 at order 4."""
        h2 = self.h * self.h
        return h2 if self.stencil_order == 2 else 12.0 * h2

    @property
    def cell_weight(self) -> float:
        # quadrature weight per grid point: h per active dim, full period
        # per inactive dim
        return self.h ** self.k * self.length ** (7 - self.k)

    def axis_of(self, dim: int, ndim_total: int) -> int:
        """Array axis carrying direction ``dim`` in a field with ``ndim_total`` axes."""
        return ndim_total - self.k + self.active_dims.index(dim)

    def along(self, dim: int, values: np.ndarray) -> np.ndarray:
        """The n values of a 1-D array laid along active direction ``dim``,
        shaped to broadcast against the grid (ValueError if ``dim`` is inactive)."""
        shape = [1] * self.k
        shape[self.active_dims.index(dim)] = self.n
        return values.reshape(shape)

    def coordinate(self, dim: int) -> np.ndarray:
        """Coordinate values along an active direction, broadcast to grid shape."""
        return np.broadcast_to(self.along(dim, np.arange(self.n) * self.h), self.shape)

    def displacement(self, center_index: int) -> np.ndarray:
        """1-D periodic displacement x - x0 from grid index ``center_index``,
        lifted to (-L/2, L/2]."""
        d = ((np.arange(self.n) - center_index) % self.n) * self.h
        return np.where(d > self.length / 2, d - self.length, d)

    def lifted_displacement(self, dim: int, center_index: int) -> np.ndarray:
        """Periodic displacement x - x0 along ``dim``, lifted to (-L/2, L/2]."""
        return np.broadcast_to(self.along(dim, self.displacement(center_index)), self.shape)

    def zeros(self, rank: int) -> np.ndarray:
        return np.zeros((7,) * rank + self.shape)


def _periodic(arr: np.ndarray, ax: int, shifts: tuple, kernel, out: np.ndarray) -> np.ndarray:
    """Evaluate a stencil without copying the field.

    Each periodic shift u[i + s] along axis ``ax`` (``np.roll(arr, -s, ax)``)
    is read as slices of ``arr``.  ``kernel(o, *views)`` writes the stencil
    into the part ``o`` of ``out``, one view per shift.  The interior is one
    pass over the flattened field: the flat offset of a shift is s times the
    size of the axes after ``ax``.  That pass also writes, wrongly, the rows
    near the ends of ``ax``; the wrapped edges are then rewritten run by run,
    each run one slice per shift.
    """
    if not out.flags.c_contiguous:  # its flattened pass would write into a copy
        raise ValueError("a stencil writes only into a C-contiguous out")
    n, before, after = arr.shape[ax], -min(shifts), max(shifts)
    inner = math.prod(arr.shape[ax + 1:])
    flat, flat_out = np.ascontiguousarray(arr).reshape(-1), out.reshape(-1)
    lo, hi = before * inner, flat.size - after * inner
    if lo < hi:
        kernel(flat_out[lo:hi], *(flat[lo + s * inner:hi + s * inner] for s in shifts))
    lead = (slice(None),) * ax
    cuts = sorted({0, n} | {-s % n for s in shifts})
    for a, b in zip(cuts, cuts[1:]):
        if a >= before and b <= n - after:
            continue  # interior, done above
        views = [arr[lead + (slice((a + s) % n, (a + s) % n + b - a),)] for s in shifts]
        kernel(out[lead + (slice(a, b),)], *views)
    return out


def partial(grid: Grid, arr: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Central difference along ``dim``; zero when the direction is inactive.
    Written into ``out`` if given (C-contiguous, not overlapping ``arr``)."""
    if dim not in grid.active_dims:
        if out is None:
            return np.zeros_like(arr)
        out[...] = 0.0
        return out
    if out is None:
        out = np.empty(arr.shape, np.result_type(arr, 1.0))
    ax = grid.axis_of(dim, arr.ndim)
    h = grid.h
    # each kernel sums left to right, as the expression in its comment reads
    if grid.stencil_order == 2:

        def kernel(o, p1, m1):  # (u[i+1] - u[i-1]) / 2h
            np.subtract(p1, m1, out=o)
            o /= 2.0 * h

        return _periodic(arr, ax, (1, -1), kernel, out)

    def kernel(o, p2, p1, m1, m2):  # (-u[i+2] + 8 u[i+1] - 8 u[i-1] + u[i-2]) / 12h
        np.multiply(p1, 8.0, out=o)
        o -= p2  # 8 u[i+1] - u[i+2] is -u[i+2] + 8 u[i+1] exactly
        o -= 8.0 * m1
        o += m2
        o /= 12.0 * h

    return _periodic(arr, ax, (2, 1, -1, -2), kernel, out)


def laplacian(
    grid: Grid,
    arr: np.ndarray,
    out: np.ndarray | None = None,
    term: np.ndarray | None = None,
    lattice: bool = False,
) -> np.ndarray:
    """Compact central Laplacian: each active direction's neighbour sum
    (u[i+1] + u[i-1], or 16 (u[i+1] + u[i-1]) - u[i+2] - u[i-2] at order 4),
    added in direction order, minus 2k u (30k u) once, over h^2 (12 h^2,
    ``grid.laplacian_scale``) once.  With ``lattice`` that division is left
    out: the stencil in lattice units, ``laplacian_scale`` times Lap u.
    Written into ``out`` if given, with ``term`` (if given) as the scratch of
    the later directions and the centre; both C-contiguous, neither overlapping
    ``arr``.  A constant's order-2 Laplacian is exactly 0 for k <= 5 only
    (fl(10c) + 2c need not be fl(12c)), its order-4 one only if its neighbour
    sums are exact (u = 1, say)."""
    if grid.stencil_order == 2:
        shifts, centre = (1, -1), 2.0 * grid.k

        def kernel(o, p1, m1):  # u[i+1] + u[i-1]
            np.add(p1, m1, out=o)

    else:
        shifts, centre = (2, 1, -1, -2), 30.0 * grid.k

        def kernel(o, p2, p1, m1, m2):  # 16 (u[i+1] + u[i-1]) - u[i+2] - u[i-2]
            np.add(p1, m1, out=o)
            o *= 16.0
            o -= p2
            o -= m2

    if out is None:
        out = np.empty(arr.shape, np.result_type(arr, 1.0))
    if term is None:
        term = np.empty_like(out)
    for i, dim in enumerate(grid.active_dims):
        ax = grid.axis_of(dim, arr.ndim)
        if i == 0:
            _periodic(arr, ax, shifts, kernel, out)
        else:
            out += _periodic(arr, ax, shifts, kernel, term)
    out -= np.multiply(arr, centre, out=term)
    if not lattice:
        out /= grid.laplacian_scale
    return out


def grad_scalar(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Gradient of a scalar field as a rank-1 field (7, *grid)."""
    out = np.zeros((7,) + u.shape)
    for dim in grid.active_dims:
        out[dim] = partial(grid, u, dim)
    return out


def grad_vector(grid: Grid, x: np.ndarray) -> np.ndarray:
    """d_p of a field of any rank in a new leading slot p: (grad X)_pq = d_p X_q."""
    out = np.zeros((7,) + x.shape)
    for dim in grid.active_dims:
        out[dim] = partial(grid, x, dim)
    return out


def div2(grid: Grid, t: np.ndarray, rows: bool = False) -> np.ndarray:
    """First-slot divergence (Div T)_q = d_p T_pq of a rank-2 field, or, with
    ``rows``, of its active rows alone: t[i] = T_p. for the i-th active p."""
    out = np.zeros(t.shape[1:])
    for i, dim in enumerate(grid.active_dims):
        out += partial(grid, t[i if rows else dim], dim)
    return out


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Volume integral of a scalar field over the full 7-torus."""
    return float(np.sum(f)) * grid.cell_weight


def save_checkpoint(path, grid: Grid, u: np.ndarray) -> None:
    """Write a bit-exact checkpoint of the state field u = (f, X), shape (8, *grid).

    Layout: magic "G2FL", version u32, N u32, L float64, active-dims
    bitmask u8, stencil order u8, then u as little-endian float64 in
    row-major order: f, then X component-major.
    """
    bitmask = 0
    for d in grid.active_dims:
        bitmask |= 1 << d
    header = CHECKPOINT_MAGIC + struct.pack(
        _CHECKPOINT_HEADER, CHECKPOINT_VERSION, grid.n, grid.length, bitmask, grid.stencil_order
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Grid, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ValueError for a file that is not a complete checkpoint, or
    whose payload holds a non-finite number.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a state checkpoint (magic {magic!r})")
        header = fh.read(struct.calcsize(_CHECKPOINT_HEADER))
        payload = fh.read()
    if len(header) < struct.calcsize(_CHECKPOINT_HEADER):
        raise ValueError("truncated checkpoint header")
    version, n, length, bitmask, order = struct.unpack(_CHECKPOINT_HEADER, header)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if bitmask >> 7:
        raise ValueError(f"corrupted checkpoint header: active-dims bitmask {bitmask:#010b}")
    dims = tuple(d for d in range(7) if bitmask & (1 << d))
    grid = Grid(length=length, n=n, active_dims=dims, stencil_order=order)
    npts = n ** grid.k
    if len(payload) != 8 * 8 * npts:
        raise ValueError(
            f"checkpoint payload has {len(payload)} bytes, a {n}^{grid.k} grid needs {8 * 8 * npts}"
        )
    u = np.frombuffer(payload, dtype="<f8").reshape((8,) + grid.shape).copy()
    if not np.isfinite(u).all():
        raise ValueError("checkpoint payload holds a non-finite number")
    return grid, u
