"""Full-order Navier-Stokes time stepping with Newton's method.

Each step solves the fully implicit momentum/continuity system on the
Taylor-Hood space: find ``(u, p)`` with

    (D_t u, v) + b(u, u, v) - (p, div v) + nu (grad u, grad v) = 0
    (div u, q) = 0

for all free test functions, where ``D_t`` is the backward-Euler or BDF2
difference (``numerics.implicit_step``, which the ROM steps as well; BDF2
starts with one theta = 2/3 step) and ``b`` is the configured nonlinear
form.  The saddle-point Newton system is solved monolithically by a direct
sparse factorization.

The system is staged.  Its linear part is one saddle-point block

    L = [[alpha/dt M + nu K, -D^T], [D, 0]]

(``fem.saddle_block``), where ``alpha`` is the time-derivative coefficient
(1 for backward Euler, 3/2 for BDF2).  A run fixes L and its steady
essential mask and values on its first step; a step forms its history load
h = [M hist / dt - w (nu K u_old + N(u_old)); 0] once, and each residual is
L x - h + [N(u); 0] with the constrained rows zeroed: one sparse
matrix-vector product and one nonlinear assembly.
hist is u_old for backward Euler and 2 u_old - u_prev / 2 for BDF2, and the
weight w of the operator at the old state is 0, except on BDF2's first
step.  That step has no u_prev and is the theta = 2/3 step, hist =
3/2 u_old and w = 1/2, with the pressure implicit: its alpha is BDF2's 3/2,
so it shares BDF2's L and Newton matrix.

Newton runs as a chord iteration (Kelley, *Solving Nonlinear Equations with
Newton's Method*, SIAM 2003): one factorized Jacobian is held in a
:class:`HeldFactor`, with L and the essential data, and reused across
iterations and across time steps, since one factorization costs as much as
dozens of residual evaluations or triangular solves.  A factorization is of
the constrained ``L + [[N'(u), 0], [0, 0]]`` and eliminates the unknowns in
the space's ``TaylorHoodSpace.saddle_order``.
It is redone at the current iterate only when no factor is held, or when an
iteration shrinks the residual norm by less than ``REFACTOR_CONTRACTION``.
The matrix is one sparse sum of L and the Jacobian
(``fem.nonlinear_jacobian``), whose constrained rows are then turned into
identity rows in the sum's own CSR arrays (``fem.constrain_rows``, which
the Stokes projection shares).  Exact zeros are dropped on the way, as
``diag(~mask) @ m + diag(mask)`` drops them: SuperLU would keep an explicit
zero as an entry, so the LU fill depends on it.
Every factor is float32 and every residual float64 (mixed-precision
iterative refinement, Carson & Higham, SISC 2018; see ``flowrom.numerics``).
In the chord iteration a float32 solve perturbs the update by about 1e-5
relative, far below that contraction, so it triggers no extra
refactorization; near the tolerance it can cost an extra solve.  The
residual is always exact, so the converged state meets the same tolerance
as exact Newton.  The Stokes projection (``numerics.solve_sparse``) refines
its float32 solve in float64 to a float64 residual, two or three
refinements on the package's meshes.

The drag is the force of these discrete equations (:func:`step_drag`;
John & Matthies, IJNMF 37, 2001): the step's velocity residual without its
pressure term, tested with a discretely divergence-free lifting v_d of e_x
on the drag boundary (:func:`drag_lifting`), so the pressure drops out
exactly.  The ROM needs no pressure: the same function of its states is its
drag, which ``rom.RomProjection.drag`` reads off the projection of the
modes and v_d.

The experiments' initial velocities (Kelvin-Helmholtz shear layer,
Taylor-Green vortex, the cylinder channel at rest) and boundary conditions
live here as well; ``cli._build_problem`` pairs them with a problem name.
"""

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    NonlinearForm,
    apply_constraints,
    cached,
    constrain_rows,
    constraint_mask,
    nonlinear_jacobian,
    nonlinear_residual,
    saddle_block,
)
from .numerics import (NEWTON_MAX_ITER, NEWTON_TOL, SCHEMES, NewtonConvergenceError, factorize, grid_step,
                       implicit_step, solve_sparse, step_count)
from .pod import SnapshotSet
from .diagnostics import ScalarSeries, energy_enstrophy


# A chord iteration refactorizes once the residual norm shrinks by less than
# this factor in one iteration; a fresh Jacobian then restores quadratic
# convergence.
REFACTOR_CONTRACTION = 0.1


@dataclass
class FomConfig:
    """Settings of a full-order run.

    ``boundary`` maps mesh labels to the velocity each prescribes: a pair
    ``(u1, u2)`` with ``None`` for a free component, or a callable ``(x, y,
    t) -> (u1, u2)`` (see ``TaylorHoodSpace.dirichlet_data``).  ``nu`` is
    positive and finite and ``t_end`` a whole number of steps ``dt``.  The
    snapshot window is a closed time interval that holds at least one step,
    ``(0.0, t_end)`` when unset; snapshots are taken every
    ``snapshot_stride``-th step inside it.  ``drag_label`` names the
    boundary whose drag (:func:`step_drag`) is recorded, if any, and
    ``scheme`` is one of ``numerics.SCHEMES``.  The Newton tolerance and
    budget are not settings: every step stops at ``numerics.NEWTON_TOL``.
    """

    nu: float
    dt: float
    t_end: float
    form: NonlinearForm = NonlinearForm.SKEW
    scheme: str = "bdf2"
    boundary: dict = field(default_factory=dict)
    snapshot_window: tuple = None
    snapshot_stride: int = 1
    drag_label: str = None
    project_initial: bool = False

    def __post_init__(self):
        self.form = NonlinearForm.parse(self.form)
        if not 0 < self.nu < np.inf:
            raise ValueError("nu must be positive and finite")
        n_steps = step_count(self.dt, self.t_end)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        if self.snapshot_window is None:
            self.snapshot_window = (0.0, self.t_end)
        ta, tb = self.snapshot_window
        if not (0.0 <= ta <= tb and (tb <= self.t_end or grid_step(tb, self.dt) == n_steps)):
            raise ValueError("snapshot window must lie inside [0, t_end]")
        if not snapshot_steps(self.snapshot_window, self.snapshot_stride, self.dt, n_steps):
            raise ValueError(f"snapshot window [{ta}, {tb}] holds no step of dt = {self.dt}")


@dataclass
class FomState:
    """Solver state after ``step`` steps at ``t``, the running sum of the steps (``step * dt`` up to roundoff).

    :func:`run_fom` records these ``t`` as its snapshot and series times.
    ``newton_iters`` and ``factorizations`` count the linear solves and the
    Jacobian factorizations of the step that produced this state, and
    ``newton_residual`` is the residual norm it stopped at (0 for a state
    no step produced).
    """

    u: np.ndarray
    p: np.ndarray
    t: float
    step: int
    u_prev: np.ndarray = None
    newton_iters: int = 0
    factorizations: int = 0
    newton_residual: float = 0.0


@dataclass
class HeldFactor:
    """What a run fixes, built on its first step: L, the essential data and the LU.

    ``block`` is the linear saddle-point block L of the module docstring,
    ``mask`` and ``vals`` the essential DOFs and values of
    ``fem.constraint_mask``, and ``lu`` the factors of a Newton matrix built
    on L (None when none is held).  Every step of a run has the same alpha,
    dt, nu and boundary, BDF2's theta = 2/3 first step included, so one
    object serves the whole run and belongs to that run only.  Deliberately
    not part of :class:`FomState`: kept states would each pin a factorization.
    """

    lu: object = None
    block: object = None
    mask: np.ndarray = None
    vals: np.ndarray = None


# ----------------------------------------------------------------------
# experiment data

def kelvin_helmholtz_velocity(x, y, t=0.0):
    """Shear-layer initial condition: tanh profile plus a small stream-function ripple."""
    s = 28.0
    base = np.tanh(s * (2.0 * y - 1.0))
    g = np.exp(-(s**2) * (y - 0.5) ** 2)
    cosx = np.cos(8 * np.pi * x) + np.cos(20 * np.pi * x)
    dpsi_dy = -2.0 * s**2 * (y - 0.5) * g * cosx
    dpsi_dx = g * (-8 * np.pi * np.sin(8 * np.pi * x) - 20 * np.pi * np.sin(20 * np.pi * x))
    return base + 1e-3 * dpsi_dy, np.broadcast_to(-1e-3 * dpsi_dx, np.shape(base)).copy()


def taylor_green_velocity(x, y, t=0.0, nu=0.01):
    """Decaying vortex array, an exact solution on the doubly periodic 2x2 square."""
    f = np.exp(-2.0 * np.pi**2 * nu * t)
    return (-np.cos(np.pi * x) * np.sin(np.pi * y) * f,
            np.sin(np.pi * x) * np.cos(np.pi * y) * f)


def taylor_green_gradient(x, y, t=0.0, nu=0.01):
    """Gradient rows (du_i/dx_j) of the Taylor-Green velocity."""
    f = np.exp(-2.0 * np.pi**2 * nu * t)
    cx, sx = np.cos(np.pi * x), np.sin(np.pi * x)
    cy, sy = np.cos(np.pi * y), np.sin(np.pi * y)
    return ((np.pi * sx * sy * f, -np.pi * cx * cy * f),
            (np.pi * cx * cy * f, -np.pi * sx * sy * f))


def cylinder_inflow(x, y, t=0.0):
    """Parabolic channel profile 6/0.41^2 y (0.41 - y) in the x-direction."""
    u1 = 6.0 / 0.41**2 * y * (0.41 - y)
    return u1, np.zeros_like(u1)


def at_rest(x, y, t=0.0):
    """The fluid at rest: the cylinder's initial velocity, whose boundary values :func:`run_fom` sets."""
    return np.zeros_like(x), np.zeros_like(x)


def kelvin_helmholtz_boundary():
    """No-penetration top/bottom, u2 = 0 with u1 free; the periodic sides carry no essential values."""
    return {"top": (None, 0.0), "bottom": (None, 0.0)}


def cylinder_boundary():
    """The parabolic :func:`cylinder_inflow` at inflow and outflow, no-slip on the walls and cylinder."""
    return {"inflow": cylinder_inflow, "outflow": cylinder_inflow, "wall": (0.0, 0.0), "cylinder": (0.0, 0.0)}


def stokes_project(space, u, boundary):
    """L2-project a velocity field onto the discretely divergence-free subspace.

    Solves the constrained projection (w, v) - (lam, div v) = (u, v),
    (div w, q) = 0 with the essential values of ``boundary`` at t = 0 held
    fixed.  The mass block and its load are scaled by c = max|D| / max
    diag(M), which leaves w unchanged (lam becomes c lam) and balances the
    velocity pivots against the divergence, so that SuperLU keeps them on
    the diagonal in ``saddle_order``; unbalanced, a mass entry is about h
    times a divergence entry, and the 48x48 shear layer's factorization
    swaps thousands of rows and fills 20 times more.
    Interpolated initial data generally violates the weak mass constraint;
    projecting it makes every snapshot of a run satisfy it, which the POD
    space inherits.
    """
    mass = space.mass()
    scale = np.abs(space.divergence().data).max() / mass.diagonal().max()
    rhs = np.concatenate([scale * (mass @ u), np.zeros(space.n_press)])
    a, b = apply_constraints(space, saddle_block(space, scale, 0.0), rhs, boundary)
    x = solve_sparse(a, b, space.saddle_order())
    return x[: space.n_vel]


def build_initial_condition(velocity, space):
    """Nodal interpolation of an initial velocity ``(x, y, t) -> (u1, u2)`` at t = 0 onto the P2 nodes."""
    u = np.empty(space.n_vel)
    u[0::2], u[1::2] = velocity(space.scalar_xy[:, 0], space.scalar_xy[:, 1], 0.0)
    return u


# ----------------------------------------------------------------------
# time stepping

def _staged_residual(space, form, block, x, load, mask):
    """Residual L x - h + [N(u); 0] at ``x = [u, p]``, constrained rows zeroed."""
    n_vel = space.n_vel
    residual = block @ x
    residual[:n_vel] += nonlinear_residual(space, form, x[:n_vel]) - load
    residual[mask] = 0.0
    return residual


def _operator(space, config, u):
    """F(u) = nu K u + N(u), the velocity operator of the momentum equation."""
    return config.nu * (space.stiffness() @ u) + nonlinear_residual(space, config.form, u)


def _newton_matrix(space, form, block, u, mask):
    """Constrained Newton matrix L + [[N'(u), 0], [0, 0]] (CSR).

    The rows are constrained in place on the fresh sum, and the Jacobian is
    freed on return, before the caller factorizes.
    """
    jac = nonlinear_jacobian(space, form, u)
    jac.resize(block.shape)  # zero pressure rows and columns
    return constrain_rows(block + jac, mask)


def advance_step(state, config, space, held=None):
    """Advance one implicit step, returning the new state.

    The scheme is ``numerics.implicit_step``: BDF2's very first step (no
    second history level yet) is the theta = 2/3 step, whose load also
    carries half the operator at the old state.  Newton is the chord
    iteration of the module docstring: ``held`` is the run's
    :class:`HeldFactor`, built on its first step and reused and updated on
    every later one; L, the essential mask and the values come from it.
    Without one the step builds its own, factorizes on its first iteration
    and reuses both within the step only.  The history load is formed once
    per step.  Raises :class:`NewtonConvergenceError` when
    ``numerics.NEWTON_TOL`` is not reached in ``NEWTON_MAX_ITER`` linear
    solves.
    """
    held = HeldFactor() if held is None else held
    dt = config.dt
    t_new = state.t + dt
    alpha, hist, u, weight = implicit_step(config.scheme, state.u, state.u_prev)
    if held.block is None:
        held.block = saddle_block(space, alpha / dt, config.nu)
        held.mask, held.vals = constraint_mask(space, config.boundary)
    block, mask = held.block, held.mask
    load = space.mass() @ hist / dt
    if weight:
        # the operator at the old state on BDF2's first step
        load -= weight * _operator(space, config, state.u)

    # the time-extrapolated start u saves one Newton iteration per step;
    # x = [u, p] starts from the essential values, which the identity rows of
    # the Newton system keep, and from p_old in the pinned gauge, which the
    # pinned DOF's 0 keeps; u and p are views that follow its updates
    x = np.concatenate([u, state.p - state.p[space.pinned_pressure]])
    x[mask] = held.vals[mask]
    u, p = x[: space.n_vel], x[space.n_vel :]

    n_factor = 0
    prev_norm = None
    for it in range(NEWTON_MAX_ITER + 1):
        residual = _staged_residual(space, config.form, block, x, load, mask)
        res_norm = np.linalg.norm(residual)
        if res_norm <= NEWTON_TOL:
            break
        if it == NEWTON_MAX_ITER or not np.isfinite(res_norm):
            raise NewtonConvergenceError(
                f"Newton stalled at step {state.step + 1} (t={t_new:g}): "
                f"residual {res_norm:.3e} after {it} iterations",
                step=state.step + 1,
                residual=res_norm,
            )
        stalled = prev_norm is not None and res_norm > REFACTOR_CONTRACTION * prev_norm
        if held.lu is None or stalled:
            # release the old factors first so that only one is ever alive
            held.lu = None
            held.lu = factorize(_newton_matrix(space, config.form, block, u, mask), space.saddle_order())
            n_factor += 1
        x += held.lu.solve(-residual)
        prev_norm = res_norm

    # pressure gauge: remove the mean so p lives in L^2_0
    vol = space.pressure_volume()
    p = p - (vol @ p) / vol.sum()
    return FomState(u=u, p=p, t=t_new, step=state.step + 1, u_prev=state.u,
                    newton_iters=it, factorizations=n_factor, newton_residual=float(res_norm))


# c_D = -DRAG_SCALE v_d . R: 2 / (U^2 D) from the mean inflow speed U = 1 and the cylinder diameter D = 0.1
DRAG_SCALE = 20.0


@cached
def _drag_lifting(space, label, labels):
    """v_d: e_x = (1, 0) on ``label``, (0, 0) on the other boundary ``labels``, D v_d = 0.

    One Stokes projection of zero, kept on the space per ``(label, labels)``
    by :func:`fem.cached`; a label missing from the mesh raises ``ValueError``.
    """
    boundary = {other: (0.0, 0.0) for other in labels}
    boundary[label] = (1.0, 0.0)
    return stokes_project(space, np.zeros(space.n_vel), boundary)


def drag_lifting(space, config):
    """v_d of ``config.drag_label`` against the other labels of ``config.boundary``, once per space."""
    return _drag_lifting(space, config.drag_label, tuple(config.boundary))


def step_drag(space, config, u, u_old, u_prev=None):
    """Drag coefficient c_D = -DRAG_SCALE v_d . R / (1 + w) of the ``config.dt`` step from ``u_old`` to ``u``.

    R = M (alpha u - hist) / dt + F(u) + w F(u_old), F(u) = nu K u + N(u),
    is the step's velocity residual without -D^T p, with alpha, hist and w
    from ``numerics.implicit_step(config.scheme, u_old, u_prev)`` as
    :func:`advance_step` forms them (``u_prev`` is None on a run's first
    step).  BDF2's theta = 2/3 start is the theta step divided by theta,
    so its R is 1 + w = 1/theta times the step's force; w is 0 on every
    other step.  D v_d = 0, so the pressure term is exactly 0.  At a
    converged step R = D^T p at every free DOF, so c_D depends on v_d only
    through its boundary values, to the Newton tolerance.
    """
    alpha, hist, _, weight = implicit_step(config.scheme, u_old, u_prev)
    residual = space.mass() @ (alpha * u - hist) / config.dt + _operator(space, config, u)
    if weight:
        residual += weight * _operator(space, config, u_old)
    return -DRAG_SCALE * float(drag_lifting(space, config) @ residual) / (1.0 + weight)


def snapshot_steps(window, stride, dt, n_steps):
    """Snapshot steps (0-based, initial state included) in the closed interval ``window``; see ``grid_step``."""
    ta, tb = window
    first, last = grid_step(ta, dt), grid_step(tb, dt)
    first = int(np.ceil(ta / dt)) if first is None else first
    last = int(np.floor(tb / dt)) if last is None else last
    return list(range(first, min(last, n_steps) + 1, stride))


def run_fom(config, mesh, space, u0):
    """Run the full-order solver, recording snapshots and scalar series.

    Returns ``(state, snapshots, series)`` where ``state`` is the final
    :class:`FomState`, ``snapshots`` is a :class:`SnapshotSet`, and
    ``series`` maps the CLI scalars file's columns, in its order (``energy``,
    ``enstrophy``, ``div_error``, ``drag``, ``newton_iters``,
    ``factorizations``, ``newton_residual``), to :class:`ScalarSeries`
    sampled at every step including the initial state (whose solver counts
    and residual are 0).  ``drag`` (:func:`step_drag`) is always present:
    NaN at t = 0, where no step ends, and throughout without a
    ``drag_label``.  One :class:`HeldFactor` serves the whole run.
    """
    dt = config.dt
    n_steps = step_count(dt, config.t_end)

    u0 = np.array(u0, dtype=float, copy=True)
    mask, vals = space.dirichlet_data(config.boundary)
    u0[mask] = vals[mask]
    if config.project_initial:
        u0 = stokes_project(space, u0, config.boundary)
    state = FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0)

    snap_at = set(snapshot_steps(config.snapshot_window, config.snapshot_stride, dt, n_steps))
    columns, snap_times = [], []
    series = {name: [] for name in ("energy", "enstrophy", "div_error", "drag",
                                    "newton_iters", "factorizations", "newton_residual")}
    times = []

    def record(st, drag=np.nan):
        times.append(st.t)
        energy, enstrophy = energy_enstrophy(space, st.u)
        series["energy"].append(energy)
        series["enstrophy"].append(enstrophy)
        divsq = st.u @ (space.div_form() @ st.u)
        series["div_error"].append(float(np.sqrt(max(divsq, 0.0))))
        series["drag"].append(drag)
        series["newton_iters"].append(st.newton_iters)
        series["factorizations"].append(st.factorizations)
        series["newton_residual"].append(st.newton_residual)
        if st.step in snap_at:
            columns.append(st.u.copy())
            snap_times.append(st.t)

    held = HeldFactor()
    record(state)
    for _ in range(n_steps):
        old, state = state, advance_step(state, config, space, held)
        record(state, np.nan if config.drag_label is None
               else step_drag(space, config, state.u, old.u, old.u_prev))

    t_arr = np.array(times)
    out_series = {name: ScalarSeries(times=t_arr, values=np.array(vals_)) for name, vals_ in series.items()}
    snapshots = SnapshotSet(
        matrix=np.array(columns).T if columns else np.zeros((space.n_vel, 0)),
        times=np.array(snap_times),
    )
    return state, snapshots, out_series
