"""flowrom: a desk-scale lab for FOM/ROM consistency of the Navier-Stokes nonlinearity.

The package provides a 2D Taylor-Hood (P2/P1) incompressible Navier-Stokes
solver with four selectable discretizations of the convective term
(convective, skew-symmetric, rotational, EMAC), a POD-Galerkin reduced order
model pipeline built from solver snapshots, and the diagnostics needed to
observe how reduced models lock when their nonlinear form differs from the
one that generated the snapshots.

Every name lives in the module that defines it (``flowrom.fom.run_fom``,
``flowrom.mesh.uniform_rect_mesh``, ...); the package itself holds only
``__version__``.
"""

__version__ = "0.1.0"
