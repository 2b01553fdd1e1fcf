"""flowrom: a desk-scale lab for FOM/ROM consistency of the Navier-Stokes nonlinearity.

The package provides a 2D Taylor-Hood (P2/P1) incompressible Navier-Stokes
solver with four selectable discretizations of the convective term
(convective, skew-symmetric, rotational, EMAC), a POD-Galerkin reduced order
model pipeline built from solver snapshots, and the diagnostics needed to
observe how reduced models lock when their nonlinear form differs from the
one that generated the snapshots.
"""

from .numerics import QuadratureRule, SingularSystemError, sym_eig, triangle_quadrature
from .mesh import Mesh, identify_periodic, read_triangle_mesh, uniform_rect_mesh, load_bundled_mesh
from .fem import NonlinearForm, TaylorHoodSpace, trilinear_value
from .fom import FomConfig, FomState, build_initial_condition, advance_step, run_fom, step_drag
from .pod import (
    PodBasis,
    SnapshotSet,
    build_pod_basis,
    pod_projection_error,
    project_field,
)
from .rom import RomOperators, RomTrajectory, assemble_rom_operators, reconstruct_field, run_rom
from .diagnostics import (
    ScalarSeries,
    TrajectoryError,
    energy_enstrophy,
    reduced_trajectory_error,
    trajectory_error,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "SingularSystemError",
    "sym_eig",
    "triangle_quadrature",
    "Mesh",
    "identify_periodic",
    "read_triangle_mesh",
    "uniform_rect_mesh",
    "load_bundled_mesh",
    "NonlinearForm",
    "TaylorHoodSpace",
    "trilinear_value",
    "FomConfig",
    "FomState",
    "build_initial_condition",
    "advance_step",
    "run_fom",
    "step_drag",
    "PodBasis",
    "SnapshotSet",
    "build_pod_basis",
    "pod_projection_error",
    "project_field",
    "RomOperators",
    "RomTrajectory",
    "assemble_rom_operators",
    "reconstruct_field",
    "run_rom",
    "ScalarSeries",
    "TrajectoryError",
    "energy_enstrophy",
    "reduced_trajectory_error",
    "trajectory_error",
]
