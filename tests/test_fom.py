import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import flowrom.fom
from flowrom.fem import (
    TaylorHoodSpace,
    apply_constraints,
    constrain_rows,
    constraint_mask,
    l2_error,
    nonlinear_jacobian,
    nonlinear_residual,
    saddle_block,
)
from flowrom.fom import (
    FomConfig,
    FomState,
    HeldFactor,
    NewtonConvergenceError,
    _newton_matrix,
    advance_step,
    at_rest,
    build_initial_condition,
    cylinder_boundary,
    kelvin_helmholtz_boundary,
    kelvin_helmholtz_velocity,
    run_fom,
    snapshot_steps,
    step_drag,
    stokes_project,
    taylor_green_gradient,
    taylor_green_velocity,
)
from flowrom.mesh import identify_periodic, load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import NEWTON_TOL, factorize, solve_sparse, step_count

from conftest import (
    Float64Factor,
    diagonal_product_constraint,
    field_norms,
    scheme_residual,
    twelve_direction_jacobian,
)


@pytest.fixture(scope="module")
def kh16():
    mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
    return mesh, TaylorHoodSpace(mesh)


@pytest.fixture(scope="module")
def cylinder():
    mesh = load_bundled_mesh()
    return mesh, TaylorHoodSpace(mesh)


@pytest.fixture(scope="module")
def torus16():
    mesh = identify_periodic(identify_periodic(uniform_rect_mesh(16, 16, 2.0, 2.0), "x"), "y")
    return mesh, TaylorHoodSpace(mesh)


class TestInitialConditions:
    def test_kh_centerline_horizontal_velocity_vanishes(self, kh16):
        _, space = kh16
        u = build_initial_condition(kelvin_helmholtz_velocity, space)
        on_center = np.isclose(space.scalar_xy[:, 1], 0.5)
        assert on_center.sum() > 0
        assert np.all(u[0::2][on_center] == 0.0)

    def test_kh_corner_value(self, kh16):
        _, space = kh16
        u = build_initial_condition(kelvin_helmholtz_velocity, space)
        node = np.flatnonzero(np.isclose(space.scalar_xy[:, 0], 0.0)
                              & np.isclose(space.scalar_xy[:, 1], 1.0))[0]
        assert abs(u[2 * node] - 1.0) < 1e-10
        assert u[2 * node + 1] == 0.0

    def test_taylor_green_divergence(self, torus16):
        _, space = torus16
        # analytic identity: trace of the gradient vanishes pointwise
        xs = np.linspace(0, 2, 17)
        g = taylor_green_gradient(xs, xs[::-1], t=0.3, nu=0.05)
        assert np.abs(g[0][0] + g[1][1]).max() < 1e-14
        u = build_initial_condition(taylor_green_velocity, space)
        assert field_norms(space, u).div_l2 < 0.2  # interpolant: small, not zero

    def test_cylinder_rest_state(self, cylinder):
        # from rest, run_fom's u0 is zero with the boundary profile applied
        mesh, space = cylinder
        u = build_initial_condition(at_rest, space)
        assert not u.any()
        cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.0025, form="emac", boundary=cylinder_boundary(),
                        snapshot_window=(0.0, 0.0))
        _, snaps, _ = run_fom(cfg, mesh, space, u)
        mask, vals = space.dirichlet_data(cylinder_boundary())
        assert vals[mask].any() and np.array_equal(snaps.matrix[:, 0], vals)

    def test_stokes_projection_kills_weak_divergence(self, kh16):
        _, space = kh16
        u = build_initial_condition(kelvin_helmholtz_velocity, space)
        div = space.divergence()
        assert np.linalg.norm(div @ u) > 1e-6  # interpolant violates the constraint
        w = stokes_project(space, u, kelvin_helmholtz_boundary())
        assert np.linalg.norm(div @ w) < 1e-12
        # projection preserves the essential values
        mask, vals = space.dirichlet_data(kelvin_helmholtz_boundary())
        assert np.allclose(w[mask], vals[mask])


class TestRefinedStokesSolve:
    """The Stokes projection: one float32 LU, refined in float64 by ``numerics.solve_sparse``."""

    @pytest.mark.parametrize("problem", ["kh16", "cylinder"])
    def test_matches_a_float64_factorization(self, request, problem):
        _, space = request.getfixturevalue(problem)
        if problem == "cylinder":
            boundary, u = cylinder_boundary(), space.dirichlet_data(cylinder_boundary())[1]
        else:
            boundary, u = kelvin_helmholtz_boundary(), build_initial_condition(kelvin_helmholtz_velocity, space)
        n = space.n_vel
        mass = space.mass()
        balance = np.abs(space.divergence().data).max() / mass.diagonal().max()
        a, b = apply_constraints(space, saddle_block(space, balance, 0.0),
                                 np.concatenate([balance * (mass @ u), np.zeros(space.n_press)]), boundary)
        order = space.saddle_order()
        x = solve_sparse(a, b, order)
        # the float64 reference on the unbalanced system, refined once
        # (unrefined it is itself off by 8.5e-13 on the cylinder): the
        # balance leaves the projected field unchanged
        a1, b1 = apply_constraints(space, saddle_block(space, 1.0, 0.0),
                                   np.concatenate([mass @ u, np.zeros(space.n_press)]), boundary)
        lu = Float64Factor(a1, order)
        ref = lu.solve(b1)
        ref += lu.solve(b1 - a1 @ ref)
        assert np.linalg.norm(x[:n] - ref[:n]) <= 1e-12 * np.linalg.norm(ref[:n])
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (np.linalg.norm(a.data) * np.linalg.norm(x) + np.linalg.norm(b))
        div = space.divergence()
        # at roundoff: against the scale of the products summed in D u
        assert np.linalg.norm(div @ x[:n]) <= 1e-14 * np.linalg.norm(abs(div) @ abs(x[:n]))
        w = stokes_project(space, u, boundary)
        assert np.array_equal(w, x[:n])
        mask, vals = space.dirichlet_data(boundary)
        assert np.array_equal(w[mask], vals[mask])

    def test_balanced_projection_keeps_diagonal_pivots(self, monkeypatch):
        # with the unbalanced mass block the 48x48 shear layer's projection
        # swaps thousands of rows in the saddle order and fills about 20 times more
        space = TaylorHoodSpace(identify_periodic(uniform_rect_mesh(48, 48), "x"))
        boundary = kelvin_helmholtz_boundary()
        factors = []
        real = flowrom.numerics.spla.splu

        def spy(a, *args, **kwargs):
            factors.append(real(a, *args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(flowrom.numerics.spla, "splu", spy)
        u = stokes_project(space, build_initial_condition(kelvin_helmholtz_velocity, space), boundary)
        projection, = factors
        assert np.array_equal(projection.perm_r, np.arange(projection.perm_r.size))
        mask, _ = constraint_mask(space, boundary)
        newton = _newton_matrix(space, "skew", saddle_block(space, 1 / 0.02, 1 / 2800), u, mask)
        factorize(newton, space.saddle_order())
        assert projection.nnz <= 1.5 * factors[-1].nnz

    def test_a_projected_run_factorizes_only_in_float32(self, kh16, monkeypatch):
        mesh, space = kh16
        factored = []
        real = flowrom.numerics.spla.splu

        def spy(a, *args, **kwargs):
            factored.append(a.dtype)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(flowrom.numerics.spla, "splu", spy)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.04, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary(), project_initial=True)
        run_fom(cfg, mesh, space, build_initial_condition(kelvin_helmholtz_velocity, space))
        # the projection, then the held Newton factor
        assert len(factored) >= 2 and all(dtype == np.float32 for dtype in factored)


class TestAdvanceStep:
    def test_zero_data_stays_zero(self, kh16):
        _, space = kh16
        cfg = FomConfig(nu=0.01, dt=0.1, t_end=0.1, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary())
        st = FomState(u=np.zeros(space.n_vel), p=np.zeros(space.n_press), t=0.0, step=0)
        st1 = advance_step(st, cfg, space)
        assert np.all(st1.u == 0.0)
        assert np.abs(st1.p).max() < 1e-14

    def test_taylor_green_one_step_error_second_order(self, torus16, monkeypatch):
        # One backward-Euler step commits an O(dt^2) error, so halving dt
        # divides it by ~4, and so does BDF2's theta = 2/3 start.  The
        # Richardson pair is (one step) vs (two half steps) from a pre-evolved
        # base state: a few implicit steps first damp the stiff mesh-scale
        # content of the interpolated initial data, which otherwise hides the
        # asymptotic order (BE damping of modes with lambda*dt = O(1) is not in
        # its Taylor regime); comparing against the analytic solution instead
        # would add the fixed spatial interpolation floor on top.
        monkeypatch.setattr(flowrom.fom, "NEWTON_TOL", 1e-12)
        _, space = torus16
        nu = 0.05
        u0 = build_initial_condition(taylor_green_velocity, space)
        cfg = FomConfig(nu=nu, dt=0.02, t_end=0.02, form="skew",
                        scheme="backward_euler", boundary={})
        st = FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0)
        for _ in range(12):
            st = advance_step(st, cfg, space)
        base = st.u

        def step_to(scheme, dt, nsub):
            c = FomConfig(nu=nu, dt=dt / nsub, t_end=dt, form="skew",
                          scheme=scheme, boundary={})
            s = FomState(u=base.copy(), p=np.zeros(space.n_press), t=0.0, step=0)
            for _ in range(nsub):
                s = advance_step(s, c, space)
            return s.u

        mass = space.mass()
        errs = {}
        for scheme in ("backward_euler", "bdf2"):
            for dt in (0.04, 0.02, 0.01):
                d = step_to(scheme, dt, 1) - step_to(scheme, dt, 2)
                errs[scheme, dt] = np.sqrt(d @ (mass @ d))
            assert 3.4 <= errs[scheme, 0.04] / errs[scheme, 0.02] <= 4.6
            assert 3.4 <= errs[scheme, 0.02] / errs[scheme, 0.01] <= 4.6
        # the theta step's local error (theta - 1/2) dt^2 u'' is a third of
        # backward Euler's; on this pair the half-step path carries its start
        # error through one BDF2 step (x 4/3), so the ratio is 4/9 (measured 0.45)
        for dt in (0.04, 0.02, 0.01):
            assert errs["bdf2", dt] <= 0.5 * errs["backward_euler", dt]
        analytic = {dt: l2_error(space, step_to("backward_euler", dt, 1),
                                 lambda x, y, t: taylor_green_velocity(x, y, t, nu), time=0.24 + dt)
                    for dt in (0.04, 0.01)}
        assert analytic[0.04] > analytic[0.01]

    def test_bdf2_start_solves_the_theta_two_thirds_step(self, kh16):
        # M (u1 - u0) / dt + theta F(u1) + (1 - theta) F(u0) - theta D^T p1 = 0
        # and D u1 = 0, F(u) = nu K u + N(u), theta = 2/3, in the free rows
        _, space = kh16
        boundary, nu, dt, theta = kelvin_helmholtz_boundary(), 1 / 2800, 0.02, 2.0 / 3.0
        u0 = stokes_project(space, build_initial_condition(kelvin_helmholtz_velocity, space), boundary)
        cfg = FomConfig(nu=nu, dt=dt, t_end=dt, form="emac", scheme="bdf2", boundary=boundary)
        st = advance_step(FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0), cfg, space)
        mass, stiff, div = space.mass(), space.stiffness(), space.divergence()

        def op(u):
            return nu * (stiff @ u) + nonlinear_residual(space, "emac", u)

        momentum = mass @ (st.u - u0) / dt + theta * (op(st.u) - div.T @ st.p) + (1 - theta) * op(u0)
        mask, _ = space.dirichlet_data(boundary)
        assert mask.any()
        assert np.linalg.norm(momentum[~mask]) <= theta * NEWTON_TOL
        assert np.linalg.norm(div @ st.u) <= NEWTON_TOL
        assert st.factorizations == 1

    def test_start_is_independent_of_the_old_pressure_gauge(self, kh16):
        # p_old enters the Newton start only in the pinned gauge, so a constant
        # shift of it changes neither the solves nor the new state
        mesh, space = kh16
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.04, form="skew", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary(), project_initial=True)
        st, _, _ = run_fom(cfg, mesh, space, build_initial_condition(kelvin_helmholtz_velocity, space))
        steps = [advance_step(dataclasses.replace(st, p=st.p + shift), cfg, space) for shift in (0.0, 1e3)]
        assert steps[0].newton_iters == steps[1].newton_iters
        assert np.abs(steps[0].u - steps[1].u).max() <= 1e-12
        assert np.abs(steps[0].p - steps[1].p).max() <= 1e-12

    def test_energy_decay_backward_euler_skew(self, kh16):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.1, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary(), project_initial=True)
        _, _, series = run_fom(cfg, mesh, space, u0)
        e = series["energy"].values
        assert np.all(np.diff(e) <= 1e-12)

    def test_newton_failure_reports_step(self, kh16, monkeypatch):
        mesh, space = kh16
        monkeypatch.setattr(flowrom.fom, "NEWTON_MAX_ITER", 0)
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.02, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary())
        st = FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0)
        with pytest.raises(NewtonConvergenceError) as err:
            advance_step(st, cfg, space)
        assert err.value.step == 1
        assert err.value.residual > 0

    def test_inhomogeneous_essential_values_hold_exactly(self):
        # the cylinder's inflow/outflow profile gives nonzero essential values
        space = TaylorHoodSpace(load_bundled_mesh())
        boundary = cylinder_boundary()
        mask, vals = space.dirichlet_data(boundary)
        div = space.divergence()
        u0 = stokes_project(space, vals, boundary)
        cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.0025, form="emac", scheme="bdf2",
                        boundary=boundary)
        st = advance_step(FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0), cfg, space)
        for u in (u0, st.u):
            assert np.all(u[mask] == vals[mask])
            assert np.linalg.norm(div @ u) <= 1e-10


class TestRunFom:
    def test_trajectory_length(self, kh16):
        mesh, space = kh16
        cfg = FomConfig(nu=0.01, dt=0.05, t_end=0.15, form="convective", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary())
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        state, snaps, series = run_fom(cfg, mesh, space, u0)
        assert state.step == 3
        assert snaps.count == 4  # initial state plus three steps
        assert series["energy"].values.size == 4
        # an unset window is the whole run
        assert cfg.snapshot_window == (0.0, 0.15)
        assert np.array_equal(snaps.times, series["energy"].times)

    def test_snapshot_window_counting(self):
        assert len(snapshot_steps((5.0, 6.0), 10, 0.001, 15000)) == 101
        assert len(snapshot_steps((0.0, 0.2), 1, 0.02, 10)) == 11
        assert len(snapshot_steps((0.0, 0.5), 1, 0.1, 5)) == 6
        assert snapshot_steps((0.1, 0.3), 2, 0.1, 10) == [1, 3]

    def test_window_end_on_the_last_step(self):
        # t_end lies 5e-10 below step 1,000, on it by the one grid rule, so the
        # run's default window ends on that step too
        cfg = FomConfig(nu=1.0, dt=1e-4, t_end=0.1 - 5e-10)
        n_steps = step_count(cfg.dt, cfg.t_end)
        steps = snapshot_steps(cfg.snapshot_window, cfg.snapshot_stride, cfg.dt, n_steps)
        assert n_steps == 1000 and len(steps) == 1001 and steps[-1] == 1000

    def test_scheme_residual_at_accepted_state(self, kh16):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.06, form="emac", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary(), project_initial=True)
        st, snaps, _ = run_fom(cfg, mesh, space, u0)
        # the state before the last step is snapshot -2, and its predecessor snapshot -3
        assert np.array_equal(st.u_prev, snaps.matrix[:, -2])
        res = scheme_residual(space, cfg, st.u, st.p, st.u_prev, snaps.matrix[:, -3])
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.standard_normal(res.size)
            v /= np.linalg.norm(v)
            assert abs(v @ res) <= NEWTON_TOL

    def test_snapshots_discretely_divergence_free(self, kh16):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.1, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 0.1),
                        project_initial=True)
        _, snaps, _ = run_fom(cfg, mesh, space, u0)
        div = space.divergence()
        assert snaps.count == 6
        for j in range(snaps.count):
            assert np.linalg.norm(div @ snaps.matrix[:, j]) <= 1e-9

    def test_t_end_must_be_step_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            FomConfig(nu=0.01, dt=0.02, t_end=0.05, boundary=kelvin_helmholtz_boundary())

    def test_t_end_must_hold_a_step(self):
        # 1e-10 lies on step 0 of the grid, to roundoff: a run of no step
        with pytest.raises(ValueError, match="holds no step of dt = 0.05"):
            FomConfig(nu=1e-3, dt=0.05, t_end=1e-10)

    def test_no_newton_tolerance_setting(self):
        # the tolerance is numerics.NEWTON_TOL, for every run
        with pytest.raises(TypeError, match="newton_tol"):
            FomConfig(nu=1e-3, dt=0.05, t_end=0.05, newton_tol=1e-12)

    def test_bdf2_beats_backward_euler_on_taylor_green(self, torus16):
        _, space = torus16
        mesh = space.mesh
        nu = 0.05
        u0 = build_initial_condition(taylor_green_velocity, space)
        errs = {}
        for scheme in ("backward_euler", "bdf2"):
            cfg = FomConfig(nu=nu, dt=0.05, t_end=0.5, form="skew", scheme=scheme, boundary={})
            state, _, _ = run_fom(cfg, mesh, space, u0)
            errs[scheme] = l2_error(
                space, state.u,
                lambda x, y, t: taylor_green_velocity(x, y, t, nu), time=0.5)
        assert errs["bdf2"] < 0.5 * errs["backward_euler"]

    def test_bdf2_is_second_order_in_time(self, torus16, monkeypatch):
        # self-convergence against dt/8 on one mesh, so the spatial error cancels
        monkeypatch.setattr(flowrom.fom, "NEWTON_TOL", 1e-12)
        mesh, space = torus16
        u0 = build_initial_condition(taylor_green_velocity, space)
        final = {}
        for k in (1, 2, 4, 8):
            cfg = FomConfig(nu=0.05, dt=0.05 / k, t_end=0.4, form="skew", scheme="bdf2", boundary={})
            final[k] = run_fom(cfg, mesh, space, u0)[0].u
        mass = space.mass()
        errs = [np.sqrt((final[k] - final[8]) @ (mass @ (final[k] - final[8]))) for k in (1, 2, 4)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(orders >= 1.8), orders


def drag_lifting(space, cfg):
    return flowrom.fom._drag_lifting(space, cfg.drag_label, tuple(cfg.boundary))


class TestStepDrag:
    @pytest.fixture(scope="class")
    def cylinder_drag(self, cylinder):
        """The first four steps of the criterion-9 cylinder run and their drag."""
        mesh, space = cylinder
        cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.01, form="emac", scheme="bdf2",
                        boundary=cylinder_boundary(), drag_label="cylinder", project_initial=True)
        _, _, series = run_fom(cfg, mesh, space, build_initial_condition(at_rest, space))
        return cfg, series["drag"].values

    def test_lifting_is_discretely_divergence_free(self, cylinder, cylinder_drag):
        _, space = cylinder
        cfg, drag = cylinder_drag
        v = drag_lifting(space, cfg)
        mask, vals = space.dirichlet_data({**{label: (0.0, 0.0) for label in cfg.boundary},
                                           "cylinder": (1.0, 0.0)})
        assert np.array_equal(v[mask], vals[mask]) and vals.max() == 1.0
        assert np.abs(space.divergence() @ v).max() <= 1e-15
        assert np.isnan(drag[0]) and np.all(drag[1:] > 1.0)

    def test_independent_of_the_lifting(self, cylinder, cylinder_drag, monkeypatch):
        # any discretely divergence-free field with the same boundary values
        # gives the same force, to the Newton tolerance
        mesh, space = cylinder
        cfg, drag = cylinder_drag
        boundary = {**{label: (0.0, 0.0) for label in cfg.boundary}, "cylinder": (1.0, 0.0)}
        other = stokes_project(space, np.random.default_rng(0).standard_normal(space.n_vel), boundary)
        assert np.abs(other - drag_lifting(space, cfg)).max() > 1.0
        monkeypatch.setattr(flowrom.fom, "_drag_lifting", lambda space, label, labels: other)
        _, _, series = run_fom(cfg, mesh, space, build_initial_condition(at_rest, space))
        assert np.abs(series["drag"].values[1:] / drag[1:] - 1.0).max() <= 1e-9

    def test_theta_start_is_the_force_of_the_theta_step(self, cylinder, cylinder_drag):
        # BDF2's first step is the theta = 2/3 step divided by theta; its drag
        # is that of the undivided step, M (u1 - u0) / dt + 2/3 F(u1) + 1/3 F(u0)
        _, space = cylinder
        cfg, _ = cylinder_drag
        u0, u1 = np.random.default_rng(1).standard_normal((2, space.n_vel))

        def op(u):
            return cfg.nu * (space.stiffness() @ u) + nonlinear_residual(space, cfg.form, u)

        force = space.mass() @ (u1 - u0) / cfg.dt + (2.0 * op(u1) + op(u0)) / 3.0
        want = -20.0 * (drag_lifting(space, cfg) @ force)
        assert step_drag(space, cfg, u1, u0) == pytest.approx(want, rel=1e-12)

    def test_free_slip_wall_carries_no_x_force(self, kh16):
        mesh, space = kh16
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.08, form="skew", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary(), drag_label="top", project_initial=True)
        _, _, series = run_fom(cfg, mesh, space, build_initial_condition(kelvin_helmholtz_velocity, space))
        # the top wall's x-velocity DOFs are free, so the residual it tests is
        # the Newton residual
        bound = 20.0 * NEWTON_TOL * np.linalg.norm(drag_lifting(space, cfg))
        drag = series["drag"].values
        assert np.isnan(drag[0]) and np.abs(drag[1:]).max() <= bound

    def test_missing_label(self, kh16):
        _, space = kh16
        cfg = FomConfig(nu=0.01, dt=0.1, t_end=0.1, boundary=kelvin_helmholtz_boundary(),
                        drag_label="cylinder")
        u = np.zeros(space.n_vel)
        with pytest.raises(ValueError, match="labeled"):
            step_drag(space, cfg, u, u)

    def test_lifting_projected_once_per_space_and_labels(self, cylinder, monkeypatch):
        # the lifting is kept on the space: a second run on it, and every step
        # of a run, reuse it; a new space, drag label or label tuple projects again
        mesh, _ = cylinder
        liftings = []

        def spy(space, u, boundary):
            lifted = [label for label, cond in boundary.items() if cond == (1.0, 0.0)]
            liftings.extend((space, label) for label in lifted)
            return stokes_project(space, u, boundary)

        monkeypatch.setattr(flowrom.fom, "stokes_project", spy)
        cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.005, form="emac", boundary=cylinder_boundary(),
                        drag_label="cylinder", project_initial=True)
        first, second = TaylorHoodSpace(mesh), TaylorHoodSpace(mesh)
        for space in (first, first, second):
            _, _, series = run_fom(cfg, mesh, space, build_initial_condition(at_rest, space))
            assert np.isfinite(series["drag"].values[1:]).all()
        assert liftings == [(first, "cylinder"), (second, "cylinder")]
        wall = dataclasses.replace(cfg, drag_label="wall")
        run_fom(wall, mesh, first, build_initial_condition(at_rest, first))
        assert liftings == [(first, "cylinder"), (second, "cylinder"), (first, "wall")]
        flowrom.fom._drag_lifting(first, "cylinder", tuple(reversed(cfg.boundary)))
        assert liftings[3:] == [(first, "cylinder")]


class TestFactorReuse:
    """The chord iteration holds one LU across iterations and steps."""

    @pytest.mark.parametrize("form,scheme", [("skew", "backward_euler"), ("emac", "bdf2")])
    def test_shared_factor_matches_unshared_steps(self, kh16, form, scheme):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=1.0, form=form, scheme=scheme,
                        boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 1.0),
                        project_initial=True)
        final, snaps, series = run_fom(cfg, mesh, space, u0)
        n_steps = final.step
        assert n_steps == 50
        # each unshared step factorizes afresh at its first iteration
        st = FomState(u=snaps.matrix[:, 0].copy(), p=np.zeros(space.n_press), t=0.0, step=0)
        for k in range(1, n_steps + 1):
            st = advance_step(st, cfg, space)
            ref = snaps.matrix[:, k]
            assert np.linalg.norm(st.u - ref) <= 1e-8 * np.linalg.norm(st.u)
        factorizations = series["factorizations"].values
        assert factorizations[0] == 0 and series["newton_iters"].values[0] == 0
        assert factorizations.sum() < n_steps / 2
        assert np.all(series["newton_iters"].values[1:] >= 1)

    def test_bdf2_keeps_the_start_factor(self, kh16):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.1, form="skew", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary(), project_initial=True)
        _, _, series = run_fom(cfg, mesh, space, u0)
        factorizations = series["factorizations"].values
        assert factorizations[1] == 1  # first factor, at the theta = 2/3 start
        assert factorizations[2:].sum() == 0  # BDF2 keeps the start's mass coefficient

    def test_float32_factor_tracks_float64_run(self, kh16, monkeypatch):
        mesh, space = kh16
        u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=1.0, form="skew", scheme="backward_euler",
                        boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 1.0),
                        project_initial=True)
        _, snaps, series = run_fom(cfg, mesh, space, u0)
        monkeypatch.setattr(flowrom.fom, "factorize", Float64Factor)
        _, ref_snaps, ref_series = run_fom(cfg, mesh, space, u0)

        assert snaps.matrix.shape == ref_snaps.matrix.shape == (space.n_vel, 51)
        assert np.array_equal(series["factorizations"].values, ref_series["factorizations"].values)
        diff = np.linalg.norm(snaps.matrix - ref_snaps.matrix, axis=0)
        assert np.all(diff <= 1e-9 * np.linalg.norm(ref_snaps.matrix, axis=0))
        assert np.all(series["newton_iters"].values <= ref_series["newton_iters"].values + 1)
        assert np.diff(series["energy"].values).max() <= 1e-12


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``flowrom.fom.<name>``, arrays copied."""
    calls = []
    real = getattr(flowrom.fom, name)

    def spy(*args):
        calls.append([np.array(a) if isinstance(a, np.ndarray) else a for a in args])
        return real(*args)

    monkeypatch.setattr(flowrom.fom, name, spy)
    return calls


def _assert_entrywise_equal(a, ref):
    assert a.shape == ref.shape
    assert abs(a - ref).max() <= 1e-15 * abs(ref).max()


class TestStagedSystem:
    """One linear block L and one essential mask per run serve every residual and factorization."""

    @pytest.mark.parametrize("case", ["kh_backward_euler", "kh_bdf2", "cylinder"])
    def test_newton_matrix_matches_block_assembly(self, request, monkeypatch, case):
        if case == "cylinder":
            _, space = request.getfixturevalue("cylinder")
            boundary, form, nu, dt = cylinder_boundary(), "emac", 5e-4, 0.0025
            u0 = space.dirichlet_data(boundary)[1]
        else:
            _, space = request.getfixturevalue("kh16")
            boundary, form, nu, dt = kelvin_helmholtz_boundary(), "skew", 1 / 2800, 0.02
            u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        u0 = stokes_project(space, u0, boundary)
        scheme, alpha = ("backward_euler", 1.0) if case == "kh_backward_euler" else ("bdf2", 1.5)
        cfg = FomConfig(nu=nu, dt=dt, t_end=2 * dt, form=form, scheme=scheme, boundary=boundary)
        st = FomState(u=u0, p=np.zeros(space.n_press), t=0.0, step=0)
        # the cylinder stages BDF2's theta = 2/3 start, kh_bdf2 the BDF2 step after it
        if case == "kh_bdf2":
            st = advance_step(st, cfg, space)
        held = HeldFactor()
        factored = _spy(monkeypatch, "factorize")
        linearized = _spy(monkeypatch, "nonlinear_jacobian")
        advance_step(st, cfg, space, held)
        assert abs(held.block - saddle_block(space, alpha / dt, nu)).max() == 0
        assert len(factored) == len(linearized) >= 1

        div = space.divergence()
        mask, _ = constraint_mask(space, boundary)
        assert np.any(mask[: space.n_vel])
        for (matrix, _), (_, _, u) in zip(factored, linearized):
            # the Jacobian from the 12-direction oracle, the rows constrained by
            # diagonal products: the same pattern, so the same LU fill
            top = alpha / dt * space.mass() + nu * space.stiffness() + twelve_direction_jacobian(space, form, u)
            ref = diagonal_product_constraint(sp.bmat([[top, -div.T], [div, None]], format="csr"), mask)
            _assert_entrywise_equal(matrix, ref)
            assert np.array_equal(matrix.indptr, ref.indptr) and np.array_equal(matrix.indices, ref.indices)

    @pytest.mark.parametrize("problem", ["kh16", "cylinder", "torus16"])
    def test_constrain_rows_matches_diagonal_products(self, request, problem):
        # free-slip walls, inhomogeneous inflow and no-slip walls, and a torus
        # whose only constrained row is the pinned pressure
        _, space = request.getfixturevalue(problem)
        boundary = {"kh16": kelvin_helmholtz_boundary(), "cylinder": cylinder_boundary(), "torus16": {}}[problem]
        n = space.n_vel + space.n_press
        mask, _ = constraint_mask(space, boundary)
        assert mask.sum() == 1 if problem == "torus16" else mask[: space.n_vel].any()
        jac = nonlinear_jacobian(space, "emac", np.random.default_rng(7).standard_normal(space.n_vel))
        jac.resize((n, n))
        m = saddle_block(space, 50.0, 1e-3) + jac
        # SuperLU keeps an explicit zero as an entry: one in a free row, one in a constrained row
        for row in (np.flatnonzero(~mask)[3], np.flatnonzero(mask)[-1]):
            m.data[m.indptr[row] + 1] = 0.0
        want = diagonal_product_constraint(m, mask)
        got = constrain_rows(m.copy(), mask)
        assert got.nnz < m.nnz
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))

    @pytest.mark.parametrize("problem", ["kh16", "cylinder"])
    def test_stokes_matrix_matches_block_assembly(self, request, monkeypatch, problem):
        _, space = request.getfixturevalue(problem)
        if problem == "cylinder":
            boundary, u = cylinder_boundary(), space.dirichlet_data(cylinder_boundary())[1]
        else:
            boundary, u = kelvin_helmholtz_boundary(), build_initial_condition(kelvin_helmholtz_velocity, space)
        solved = _spy(monkeypatch, "solve_sparse")
        stokes_project(space, u, boundary)
        (matrix, rhs, _), = solved
        mass, div = space.mass(), space.divergence()
        # the mass block and its load balanced against the divergence
        balance = np.abs(div.data).max() / mass.diagonal().max()
        ref, ref_rhs = apply_constraints(space, sp.bmat([[balance * mass, -div.T], [div, None]], format="csr"),
                                         np.concatenate([balance * (mass @ u), np.zeros(space.n_press)]),
                                         boundary)
        _assert_entrywise_equal(matrix, ref)
        assert np.array_equal(rhs, ref_rhs)

    @pytest.mark.parametrize("case,builds", [("backward_euler", 1), ("bdf2", 1), ("cylinder", 1)])
    def test_block_built_once_per_key(self, request, monkeypatch, case, builds):
        # the shear layer under either scheme, and the cylinder's inhomogeneous inflow under BDF2
        if case == "cylinder":
            mesh, space = request.getfixturevalue("cylinder")
            cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.0125, form="emac", scheme="bdf2",
                            boundary=cylinder_boundary())
            u0 = build_initial_condition(at_rest, space)
        else:
            mesh, space = request.getfixturevalue("kh16")
            cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.1, form="skew", scheme=case,
                            boundary=kelvin_helmholtz_boundary())
            u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
        built = _spy(monkeypatch, "saddle_block")
        masked = _spy(monkeypatch, "constraint_mask")
        _, _, series = run_fom(cfg, mesh, space, u0)
        assert len(built) == len(masked) == builds
        assert series["factorizations"].values.sum() >= builds
