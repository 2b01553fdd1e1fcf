"""POD anatomy on a small shear-layer run.

Builds the basis by the method of snapshots, prints the eigenvalue spectrum,
and verifies the projection-error equality rank by rank: the averaged
H1-seminorm of the out-of-basis snapshot content equals the eigenvalue-
weighted gradient-norm sum of the discarded modes.

Run:  python3 demos/pod_spectrum.py   (seconds)
"""

import numpy as np

from flowrom.fem import TaylorHoodSpace
from flowrom.fom import (FomConfig, build_initial_condition, kelvin_helmholtz_boundary, kelvin_helmholtz_velocity,
                         run_fom)
from flowrom.mesh import identify_periodic, uniform_rect_mesh
from flowrom.pod import RANK_TOL, build_pod_basis, pod_projection_error

mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
space = TaylorHoodSpace(mesh)
u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.8, form="skew", scheme="backward_euler",
                boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 0.8),
                project_initial=True)
_, snaps, _ = run_fom(cfg, mesh, space, u0)

basis = build_pod_basis(snaps, space)
print(f"{snaps.count} snapshots -> rank {basis.rank} basis "
      f"(cutoff {RANK_TOL:g} relative to lambda_1)")

print(f"\n{'k':>3} {'lambda_k':>12} {'lambda_k/lambda_1':>18} {'|grad psi_k|':>13}")
for k in range(basis.rank):
    lam = basis.eigenvalues[k]
    print(f"{k + 1:3d} {lam:12.4e} {lam / basis.eigenvalues[0]:18.4e} {basis.grad_norms[k]:13.4e}")

print(f"\nprojection-error equality (both sides computed independently):")
print(f"{'r':>3} {'direct residual':>16} {'spectral sum':>14} {'rel. defect':>12}")
lhs, rhs = pod_projection_error(basis)
for r in range(basis.rank + 1):
    rel = abs(lhs[r] - rhs[r]) / rhs[r] if rhs[r] > 0 else float("nan")
    print(f"{r:3d} {lhs[r]:16.6e} {rhs[r]:14.6e} {rel:12.3e}")
print("\n(the constant absolute offset at large r is the gradient energy of the")
print(" spectrum below the rank cutoff, which enters the residual but not the sum)")
