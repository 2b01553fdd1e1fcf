"""Convergence of the Taylor-Hood solver on the decaying Taylor-Green vortex.

The vortex array u = (-cos(pi x) sin(pi y), sin(pi x) cos(pi y)) e^(-2 pi^2 nu t)
solves the Navier-Stokes equations exactly on the doubly periodic 2x2 square,
so the discrete error can be measured directly.  With BDF2 and dt tied to
h/4, the L2(H1)-in-time error should drop by ~4x per mesh refinement
(P2 velocity: spatial order 2 dominates).

Run:  python3 demos/taylor_green_convergence.py   (about three seconds on a 2-vCPU host at one BLAS thread)
"""

import numpy as np

from flowrom.fem import TaylorHoodSpace, h1_semi_error, l2_error
from flowrom.fom import FomConfig, build_initial_condition, run_fom, taylor_green_gradient, taylor_green_velocity
from flowrom.mesh import identify_periodic, uniform_rect_mesh

NU = 0.01
T_END = 0.25

print(f"Taylor-Green convergence, nu={NU}, T={T_END}, BDF2 with dt=h/4")
print(f"{'h':>8} {'dt':>8} {'L2(H1) err':>12} {'final L2 err':>13} {'order':>6}")
prev = None
for nx in (16, 32, 64):
    h = 2.0 / nx
    dt = h / 4.0
    mesh = identify_periodic(identify_periodic(uniform_rect_mesh(nx, nx, 2.0, 2.0), "x"), "y")
    space = TaylorHoodSpace(mesh)
    u0 = build_initial_condition(taylor_green_velocity, space)
    cfg = FomConfig(nu=NU, dt=dt, t_end=T_END, form="skew", scheme="bdf2",
                    boundary={}, snapshot_window=(0.0, T_END))
    state, snaps, _ = run_fom(cfg, mesh, space, u0)
    err_sq = sum(dt * h1_semi_error(space, u,
                                    lambda x, y, t: taylor_green_gradient(x, y, t, NU),
                                    time=t) ** 2
                 for u, t in zip(snaps.matrix[:, 1:].T, snaps.times[1:]))
    err = np.sqrt(err_sq)
    final = l2_error(space, state.u,
                     lambda x, y, t: taylor_green_velocity(x, y, t, NU), time=T_END)
    order = f"{np.log2(prev / err):6.2f}" if prev else "     -"
    print(f"{h:8.4f} {dt:8.4f} {err:12.4e} {final:13.4e} {order}")
    prev = err
