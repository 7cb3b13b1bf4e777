"""Numerical laboratory for the isometric flow of G2-structures on the
flat periodic 7-dimensional torus."""

__version__ = "0.1.0"

from .algebra import (
    StructureTables,
    build_standard_tables,
    cross,
    diamond,
    hodge_star_3,
    hodge_star_4,
    validate_tables,
)
from .grid import Grid, div2, grad_scalar, grad_vector, integrate, laplacian, partial
from .states import (
    IsometricState,
    div_torsion_of_state,
    metric_from_phi,
    phi_of_state,
    psi_of_state,
    sorted_phi_of_state,
    torsion_from_phi,
    torsion_of_state,
)
from .flow import FlowConfig, InitialSpec, Trajectory, parabolic_rescale, run
from .diagnostics import HeatKernelSpec, energy, entropy, entropy_tables, heat_kernel, theta
