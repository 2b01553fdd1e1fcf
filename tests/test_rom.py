import dataclasses

import numpy as np
import pytest
import scipy.optimize

import flowrom.fom
import flowrom.pod
import flowrom.rom
from flowrom.diagnostics import energy_enstrophy, reduced_trajectory_error, rom_energy_enstrophy
from flowrom.fem import NonlinearForm, TaylorHoodSpace, nonlinear_residual
from flowrom.fom import (FomConfig, at_rest, build_initial_condition, cylinder_boundary, drag_lifting,
                         kelvin_helmholtz_boundary, kelvin_helmholtz_velocity, run_fom, step_drag)
from flowrom.mesh import identify_periodic, load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import NewtonConvergenceError
from flowrom.pod import PodBasis, SnapshotSet, build_pod_basis, extend, project_field
from flowrom.rom import (
    _FIELD_BLOCK,
    RomOperators,
    assemble_rom_operators,
    project_fields,
    reconstruct_field,
    run_rom,
)

from conftest import rom_quadratic, traced_peak, trilinear_value, with_projection

ALL_FORMS = list(NonlinearForm)


@pytest.fixture(scope="module")
def rom_setup(kh_run, kh_basis_session):
    """The shear-layer space, snapshots and basis, projected once at the largest r the tests slice (12)."""
    _, space, snaps, _, _ = kh_run
    return space, snaps, with_projection(space, kh_basis_session, min(12, kh_basis_session.rank))


@pytest.fixture(scope="module")
def wide_basis(rom_setup):
    """32 seeded random fields posing as modes, projected at r = 30: the shear-layer basis has too few."""
    space, _, _ = rom_setup
    modes = np.random.default_rng(3).standard_normal((space.n_vel, 32))
    ones = np.ones(32)
    return with_projection(space, PodBasis(modes=modes, eigenvalues=ones, spectrum=ones, grad_norms=ones), 30)


@pytest.fixture(scope="module")
def projected(rom_setup):
    """The shear-layer basis per centering, projected once at the largest r the tests slice (12)."""
    space, snaps, basis = rom_setup
    centered = build_pod_basis(snaps, space, centering="mean")
    return {"none": basis, "mean": with_projection(space, centered, min(12, centered.rank))}


@pytest.fixture(scope="module")
def cylinder_basis():
    """Mean-centered POD of five seeded random fields on the bundled cylinder mesh.

    The mean carries inflow values, so the integration-by-parts identities
    between the forms fail here; the pointwise cube combinations do not.
    """
    space = TaylorHoodSpace(load_bundled_mesh())
    fields = np.random.default_rng(29).standard_normal((space.n_vel, 5))
    snaps = SnapshotSet(matrix=fields, times=np.arange(5.0))
    return space, build_pod_basis(snaps, space, centering="mean")


def _case(name, rom_setup, cylinder_basis):
    """(space, basis, r) of a combination case: a centered cylinder or an uncentered shear-layer basis."""
    if name == "cylinder":
        space, basis = cylinder_basis
        return space, basis, min(3, basis.rank)
    space, _, basis = rom_setup
    return space, basis, min(4, basis.rank)


class TestProjection:
    @pytest.mark.parametrize("case", ["cylinder", "kh"])
    def test_every_form_entry_matches_trilinear_value(self, rom_setup, cylinder_basis, case):
        space, basis, r = _case(case, rom_setup, cylinder_basis)
        x = basis.fields(r)
        m = x.shape[1]
        basis = with_projection(space, basis, r)
        for form in ALL_FORMS:
            tensor = assemble_rom_operators(basis, r, form, nu=1.0).tensor
            direct = np.array([[[trilinear_value(space, form, x[:, j], x[:, k], x[:, i])
                                 for k in range(m)] for j in range(m)] for i in range(m - r, m)])
            assert np.abs(tensor - direct).max() <= 1e-12 * np.abs(direct).max(), form

    @pytest.mark.parametrize("case", ["cylinder", "kh"])
    def test_slice_matches_projection_at_r(self, rom_setup, cylinder_basis, case, monkeypatch):
        space, basis, r_max = _case(case, rom_setup, cylinder_basis)
        exact = {r: with_projection(space, basis, r) for r in range(1, r_max + 1)}
        fresh = {(r, form): assemble_rom_operators(exact[r], r, form, nu=0.3)
                 for r in range(1, r_max + 1) for form in ALL_FORMS}
        basis = with_projection(space, basis, r_max)
        monkeypatch.setattr(flowrom.rom, "project_fields", None)  # the slice must not project
        for (r, form), ops in fresh.items():
            # relative to the form's r_max operators: a single entry such as
            # b(psi_1, psi_1, psi_1) can be a near-cancellation
            scale = fresh[(r_max, form)]
            sliced = assemble_rom_operators(basis, r, form, nu=0.3)
            assert sliced.tensor.shape == ops.tensor.shape and sliced.visc.shape == ops.visc.shape
            assert np.abs(sliced.tensor - ops.tensor).max() <= 1e-14 * np.abs(scale.tensor).max()
            assert np.abs(sliced.visc - ops.visc).max() <= 1e-14 * np.abs(scale.visc).max()

    def test_short_projection_is_not_sliced(self, rom_setup):
        # a projection of fewer fields than r needs is refused, not read past its end
        space, _, basis = rom_setup
        short = with_projection(space, basis, 2)
        with pytest.raises(ValueError, match="projection holds 2 fields"):
            assemble_rom_operators(short, 4, "emac", nu=0.1)

    def test_traced_peak_is_the_working_set(self, rom_setup):
        # 46 fields on the 16x16 shear layer, the size the kh16 pipeline projects.  The
        # blocked evaluation peaks at 8.7 MiB (about 5 m P + 2 m^3 floats, P = 3584
        # quadrature points); a table of weighted values besides the values peaked at
        # 11.2 MiB, and a stacked table of all fields' gradients at 18.4 MiB
        space = rom_setup[0]
        fields = np.random.default_rng(11).standard_normal((space.n_vel, 46))
        project_fields(space, fields)   # the space's cached operators and edge table exist before tracing
        peak, _ = traced_peak(lambda: project_fields(space, fields))
        assert peak <= 9.6 * 2**20


def boundary_flux_cube(space, x):
    """B[i, j, k] = boundary integral of (X_j . n)(X_i . X_k) over every boundary edge.

    Each edge is read from its own three P2 nodes (ends and midpoint) with
    the 1D quadratic shape functions, at 4-point Gauss points.
    """
    mesh = space.mesh
    t, w = np.polynomial.legendre.leggauss(4)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    shape = np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])   # (3, nq)
    fields = x.reshape(space.n_scalar, 2, -1)
    m = x.shape[1]
    cube = np.zeros((m, m, m))
    for (a, b), e in zip(mesh.boundary_edges, mesh.boundary_edge_ids):
        nodes = space.scalar_index[[a, b, mesh.num_vertices + e]]
        vals = np.einsum("nq,ncm->qcm", shape, fields[nodes])                       # (nq, 2, m)
        d = mesh.vertices[b] - mesh.vertices[a]
        flux = np.einsum("qcm,c->qm", vals, np.array([d[1], -d[0]]) / np.linalg.norm(d))
        cube += np.linalg.norm(d) * np.einsum("q,qci,qj,qck->ijk", w, vals, flux, vals)
    return cube


@pytest.fixture(scope="module")
def identity_sets(rom_setup, cylinder_basis):
    """(space, X) field sets for the integration-by-parts identity of the cubes."""
    kh_space = rom_setup[0]
    tg_space = TaylorHoodSpace(identify_periodic(identify_periodic(uniform_rect_mesh(8, 8, 2.0, 2.0), "x"), "y"))
    cyl_space, cyl = cylinder_basis
    return {
        # seeded fields, nonzero on the walls: the flux cube is not small
        "kh": (kh_space, np.random.default_rng(43).standard_normal((kh_space.n_vel, 10))),
        "cylinder": (cyl_space, cyl.fields(cyl.rank)),
        # doubly periodic: the flux cube is roundoff
        "tg": (tg_space, np.random.default_rng(47).standard_normal((tg_space.n_vel, 10))),
    }


class TestIntegrationByParts:
    @pytest.mark.parametrize("case", ["kh", "cylinder", "tg"])
    def test_divergence_cube_is_symmetric(self, identity_sets, case):
        proj = project_fields(*identity_sets[case])
        assert np.array_equal(proj.div, proj.div.transpose(2, 1, 0))

    @pytest.mark.parametrize("case", ["kh", "cylinder", "tg"])
    def test_cubes_meet_the_boundary_flux(self, identity_sets, case):
        # C[i, j, k] + C[k, j, i] + D[i, j, k] = B[i, j, k] on every entry
        space, x = identity_sets[case]
        proj = project_fields(space, x)
        flux = boundary_flux_cube(space, x)
        scale = np.abs(proj.conv).max()
        lhs = proj.conv + proj.conv.transpose(2, 1, 0) + proj.div
        assert np.abs(lhs - flux).max() <= 1e-13 * scale
        if case == "tg":
            assert np.abs(flux).max() <= 1e-13 * scale
        else:
            assert np.abs(flux).max() >= 1e-3 * scale

    @pytest.mark.parametrize("case", ["kh", "tg"])
    def test_filled_half_matches_trilinear_value(self, identity_sets, case):
        # entries with i < k come from the identity, not from a density
        space, x = identity_sets[case]
        m = x.shape[1]
        assert m >= 10
        proj = project_fields(space, x)
        rng = np.random.default_rng(59)
        samples = [(0, 0, m - 1), (0, m - 1, m - 1), (m - 2, 3, m - 1)]
        for _ in range(8):
            i, k = sorted(rng.choice(m, 2, replace=False))
            samples.append((i, rng.integers(m), k))
        for i, j, k in samples:
            conv = trilinear_value(space, "convective", x[:, j], x[:, k], x[:, i])
            skew = trilinear_value(space, "skew", x[:, j], x[:, k], x[:, i])
            assert abs(proj.conv[i, j, k] - conv) <= 1e-12 * np.abs(proj.conv).max()
            assert abs(proj.div[i, j, k] - 2.0 * (skew - conv)) <= 1e-12 * np.abs(proj.div).max()


class TestAssembleRomOperators:
    # r = 30 slices the fixture's stored projection; the other r project exactly r
    # fields, at the block boundaries of project_fields' field evaluation
    @pytest.mark.parametrize("form, r", [pytest.param(form, 30, id=form) for form in ALL_FORMS] + [
        pytest.param(form, r, id=f"{form.value}-r{r}") for form in ALL_FORMS for r in (1, _FIELD_BLOCK, _FIELD_BLOCK + 1)])
    def test_tensor_entries_match_direct_quadrature(self, rom_setup, wide_basis, form, r):
        space, _, _ = rom_setup
        basis = wide_basis if r == 30 else with_projection(space, wide_basis, r)
        ops = assemble_rom_operators(basis, r, form, nu=1 / 2800)
        # relative to the form's tensor on all 30 fields, of which ops.tensor is a
        # slice: at r = 1 the rotational tensor b(X, X, X) is exactly zero
        scale = np.abs(assemble_rom_operators(wide_basis, 30, form, nu=1 / 2800).tensor).max()
        rng = np.random.default_rng(99)
        corners = [(0, 0, 0), (r - 1, r - 1, r - 1), (0, r - 1, 0), (r - 1, 0, r - 1)]
        for i, j, k in corners + [tuple(rng.integers(0, r, size=3)) for _ in range(12)]:
            direct = trilinear_value(space, form, basis.modes[:, j], basis.modes[:, k],
                                     basis.modes[:, i])
            assert ops.tensor[i, j, k] == pytest.approx(direct, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("form", ["skew", "emac", "rotational"])
    def test_quadratic_energy_identity(self, rom_setup, projected, form):
        # a^T N(a) = b(w, w, w) = 0 carries over to the reduced tensor for
        # the energy-conserving forms (rotational: pointwise orthogonality)
        basis = projected["none"]
        r = min(8, basis.rank)
        ops = assemble_rom_operators(basis, r, form, nu=1 / 2800)
        scale = np.abs(ops.tensor).max()
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal(r)
            val = a @ rom_quadratic(ops, a)
            assert abs(val) <= 1e-11 * scale * np.linalg.norm(a) ** 3

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_quadratic_kernels_match_einsum_definitions(self, rom_setup, projected, form):
        basis = projected["none"]
        r = min(12, basis.rank)
        ops = assemble_rom_operators(basis, r, form, nu=1 / 2800)
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal(r)
            quad = np.einsum("ijk,j,k->i", ops.tensor, a, a)
            jac = np.einsum("ijk,k->ij", ops.tensor, a) + np.einsum("ikj,k->ij", ops.tensor, a)
            n_a, j_a = rom_quadratic(ops, a), ops.quadratic_jacobian(a)
            assert np.abs(n_a - quad).max() <= 1e-13 * np.abs(quad).max()
            assert np.abs(j_a - jac).max() <= 1e-13 * np.abs(jac).max()
            assert np.abs(j_a @ a - 2.0 * n_a).max() <= 1e-13 * np.abs(n_a).max()

    def test_viscous_matrix(self, rom_setup):
        space, _, basis = rom_setup
        r = min(5, basis.rank)
        nu = 0.37
        ops = assemble_rom_operators(basis, r, "skew", nu=nu)
        stiff = space.stiffness()
        direct = nu * basis.modes[:, :r].T @ (stiff @ basis.modes[:, :r])
        assert np.abs(ops.visc - direct).max() < 1e-12 * np.abs(direct).max()
        assert np.all(np.linalg.eigvalsh(ops.visc) > -1e-12)

    def test_uncentered_has_no_mean_coupling(self, rom_setup):
        # without a mean the field set is the r modes alone
        _, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(basis, r, "emac", nu=0.01)
        assert ops.tensor.shape == (r, r, r)
        assert ops.visc.shape == (r, r)

    def test_centered_mean_coupling_matches_direct(self, rom_setup, projected):
        # field 0 is the mean: its couplings and the constant are entries of the operators
        space, basis = rom_setup[0], projected["mean"]
        r = min(4, basis.rank)
        nu = 1 / 2800
        ops = assemble_rom_operators(basis, r, "convective", nu=nu)
        assert ops.tensor.shape == (r, r + 1, r + 1)
        assert ops.visc.shape == (r, r + 1)
        stiff = space.stiffness()
        for i in (0, r - 1):
            for j in (0, r - 1):
                l1 = trilinear_value(space, "convective", basis.mean, basis.modes[:, j],
                                     basis.modes[:, i])
                l2 = trilinear_value(space, "convective", basis.modes[:, j], basis.mean,
                                     basis.modes[:, i])
                assert ops.tensor[i, 0, j + 1] == pytest.approx(l1, rel=1e-11, abs=1e-13)
                assert ops.tensor[i, j + 1, 0] == pytest.approx(l2, rel=1e-11, abs=1e-13)
            c = trilinear_value(space, "convective", basis.mean, basis.mean, basis.modes[:, i]) \
                + nu * float(basis.modes[:, i] @ (stiff @ basis.mean))
            assert ops.tensor[i, 0, 0] + ops.visc[i, 0] == pytest.approx(c, rel=1e-11, abs=1e-14)

    @pytest.mark.parametrize("centering", ["none", "mean"])
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_reduced_residual_is_projected_fom_residual(self, rom_setup, projected, centering, form):
        # N(c) + V c = Psi_r^T (b(w, w, .) + nu K w) at w = X c, c = [1, a] when centered
        space, basis = rom_setup[0], projected[centering]
        r = min(8, basis.rank)
        nu = 1 / 2800
        ops = assemble_rom_operators(basis, r, form, nu=nu)
        rng = np.random.default_rng(61)
        a, d = rng.standard_normal((2, r))
        c = extend(a, basis.centered)
        w = basis.fields(r) @ c
        full = nonlinear_residual(space, form, w) + nu * (space.stiffness() @ w)
        expected = basis.modes[:, :r].T @ full
        reduced = rom_quadratic(ops, c) + ops.visc @ c
        assert np.abs(reduced - expected).max() <= 1e-11 * np.abs(expected).max()
        # the Jacobian is exact: a central difference of the quadratic term is too
        diff = 0.5 * (rom_quadratic(ops, extend(a + d, basis.centered))
                      - rom_quadratic(ops, extend(a - d, basis.centered)))
        jd = ops.quadratic_jacobian(c)[:, c.size - r:] @ d   # dN/da: the mode columns of dN/dc
        assert np.abs(jd - diff).max() <= 1e-11 * np.abs(diff).max()

    def test_rank_overflow(self, rom_setup):
        _, _, basis = rom_setup
        with pytest.raises(ValueError, match="projection holds"):
            assemble_rom_operators(basis, basis.rank + 1, "skew", nu=0.1)

    def test_tensor_is_read_only(self, rom_setup):
        # the symmetrized tensor is formed at construction and must not go stale
        _, _, basis = rom_setup
        ops = assemble_rom_operators(basis, min(3, basis.rank), "skew", nu=0.1)
        with pytest.raises(ValueError, match="read-only"):
            ops.tensor[0, 0, 0] = 1.0

    def test_rerun_is_bit_identical(self, rom_setup):
        _, _, basis = rom_setup
        r = min(6, basis.rank)
        ops1 = assemble_rom_operators(basis, r, "emac", nu=0.02)
        ops2 = assemble_rom_operators(basis, r, "emac", nu=0.02)
        assert np.array_equal(ops1.tensor, ops2.tensor)
        assert np.array_equal(ops1.visc, ops2.visc)


class TestRunRom:
    def test_pure_viscous_decay_matches_linear_recurrence(self, rom_setup, monkeypatch):
        _, _, basis = rom_setup
        r = min(6, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=0.05)
        ops = RomOperators(visc=ops.visc, tensor=np.zeros_like(ops.tensor))
        rng = np.random.default_rng(31)
        a0 = rng.standard_normal(r)
        dt, nsteps = 0.1, 12
        monkeypatch.setattr(flowrom.rom, "NEWTON_TOL", 1e-13)
        traj = run_rom(ops, a0, dt, dt * nsteps, scheme="backward_euler")
        a = a0.copy()
        mat = np.eye(r) + dt * ops.visc
        for n in range(nsteps):
            a = np.linalg.solve(mat, a)
            assert np.abs(traj.coeffs[n + 1] - a).max() < 1e-11

    def test_zero_initial_state_stays_zero(self, rom_setup):
        _, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=0.05)
        traj = run_rom(ops, np.zeros(r), 0.05, 0.5, scheme="backward_euler")
        assert np.all(traj.coeffs == 0.0)
        assert traj.times[-1] == pytest.approx(0.5)
        assert np.all(traj.newton_iters == 0)  # the initial guess already solves every step

    def test_records_newton_iterations(self, rom_setup):
        space, snaps, basis = rom_setup
        r = min(8, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=1 / 2800)
        a0 = project_field(basis, r, snaps.matrix[:, 0], space.mass())
        traj = run_rom(ops, a0, 0.02, 0.2, scheme="bdf2")
        assert traj.newton_iters.shape == traj.times.shape
        assert traj.newton_iters[0] == 0
        assert np.all((traj.newton_iters[1:] >= 1) & (traj.newton_iters[1:] <= 20))

    def test_newton_blowup_reports_step(self, rom_setup, monkeypatch):
        _, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=1e-6)
        ops = RomOperators(visc=ops.visc, tensor=np.zeros_like(ops.tensor))
        # a stiff unstable linear term the dt cannot resolve: backward Euler
        # still solves it, so force failure via the iteration budget
        ops.visc[:] = -1e8 * np.eye(r)
        monkeypatch.setattr(flowrom.rom, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(flowrom.rom, "NEWTON_TOL", 1e-30)
        with pytest.raises(NewtonConvergenceError) as err:
            run_rom(ops, np.ones(r), 1e-8, 1e-7, scheme="backward_euler")
        assert err.value.step >= 1 and err.value.residual > 1e-30

    def test_non_finite_residual_reports_step(self, rom_setup):
        # an overflowing quadratic term gives an infinite residual on the first evaluation
        _, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=0.05)
        with pytest.raises(NewtonConvergenceError, match="at step 1 .*: non-finite residual") as err:
            run_rom(ops, np.full(r, 1e200), 0.05, 0.5, scheme="backward_euler")
        assert err.value.step == 1 and not np.isfinite(err.value.residual)

    def test_singular_newton_matrix_reports_step(self):
        # V = -(3/2)/dt I: backward Euler solves (I/dt + V) a = a0/dt at every
        # step, while BDF2's alpha/dt I + V, its start's included, is exactly
        # zero and its LU breaks down
        r, dt = 3, 0.5
        ops = RomOperators(visc=-1.5 / dt * np.eye(r), tensor=np.zeros((r, r, r)))
        assert np.all(np.isfinite(run_rom(ops, np.ones(r), dt, 4 * dt, scheme="backward_euler").coeffs))
        with pytest.raises(NewtonConvergenceError, match="at step 1 .*: exactly singular Newton matrix") as err:
            run_rom(ops, np.ones(r), dt, 4 * dt, scheme="bdf2")
        assert err.value.step == 1

    def test_bdf2_starts_with_the_theta_step(self, rom_setup):
        # (a1 - a0) / dt + theta F(c1) + (1 - theta) F(c0) = 0, F(c) = V c + N(c), theta = 2/3
        _, _, basis = rom_setup
        r = min(5, basis.rank)
        ops = assemble_rom_operators(basis, r, "skew", nu=0.05)
        rng = np.random.default_rng(41)
        a0 = rng.standard_normal(r)
        dt, theta = 0.02, 2.0 / 3.0

        def op(a):
            c = extend(a, basis.centered)
            return ops.visc @ c + rom_quadratic(ops, c)

        def theta_residual(a):
            return (a - a0) / dt + theta * op(a) + (1 - theta) * op(a0)

        # MINPACK's hybrid method, read by its own residual: its status at a
        # roundoff-level root ("no further improvement") is not a failure
        a1 = scipy.optimize.root(theta_residual, a0, method="hybr", tol=1e-14).x
        assert np.linalg.norm(theta_residual(a1)) <= 1e-13 * np.linalg.norm(a0) / dt
        t_bdf = run_rom(ops, a0, dt, 2 * dt, scheme="bdf2")
        assert np.abs(t_bdf.coeffs[1] - a1).max() < 1e-9

    def test_bdf2_snapshot_reproduction(self, monkeypatch):
        # the BDF2 counterpart of acceptance criterion 4: a consistent full-rank
        # ROM stepping the FOM's own BDF2 scheme retraces the FOM trajectory
        monkeypatch.setattr(flowrom.fom, "NEWTON_TOL", 1e-11)
        monkeypatch.setattr(flowrom.pod, "RANK_TOL", 1e-14)
        monkeypatch.setattr(flowrom.rom, "NEWTON_TOL", 1e-12)
        mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
        space = TaylorHoodSpace(mesh)
        cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=1.0, form="skew", scheme="bdf2",
                        boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 1.0),
                        project_initial=True)
        _, snaps, _ = run_fom(cfg, mesh, space, build_initial_condition(kelvin_helmholtz_velocity, space))
        mass = space.mass()
        basis = build_pod_basis(snaps, space)
        r = basis.rank
        coords = basis.coordinates
        ops = assemble_rom_operators(with_projection(space, basis, r), r, "skew", nu=cfg.nu)
        traj = run_rom(ops, coords.coeffs[0, :r], cfg.dt, cfg.t_end, scheme="bdf2")
        err = reduced_trajectory_error(coords, traj, cfg.nu)
        umax = np.sqrt(np.einsum("ij,ij->j", snaps.matrix, mass @ snaps.matrix)).max()
        assert err.linf_l2 <= 1e-6 * umax, (r, err.linf_l2 / umax)


def loop_reference(ops, a0, dt, t_end, scheme):
    """The reduced Newton loop with three tensor contractions and np.linalg.solve per iteration.

    Each step starts from the same extrapolated guess as ``run_rom``.  BDF2's
    first step is the theta = 2/3 step, divided by theta:
    3/2 (a1 - a0) / dt + F(c1) + F(c0) / 2 = 0.
    """
    r = ops.r
    m = ops.tensor.shape[1]
    flat = ops.tensor.reshape(r * m, m)
    visc_modes = ops.visc[:, m - r:]
    alpha = 1.5 if scheme == "bdf2" else 1.0
    shift = alpha / dt * np.eye(r) + visc_modes
    a, a_prev = np.array(a0, dtype=float), None
    coeffs, iters = [a], [0]
    for n in range(int(round(t_end / dt))):
        if scheme == "bdf2" and a_prev is None:
            c0 = extend(a, m - r)
            hist = 1.5 * a / dt - 0.5 * ((flat @ c0).reshape(r, m) @ c0 + ops.visc @ c0)
        else:
            hist = (2.0 * a - 0.5 * a_prev) / dt if scheme == "bdf2" else a / dt
        a_new = 2.0 * a - a_prev if a_prev is not None else a.copy()
        for it in range(21):
            c = extend(a_new, m - r)
            res = alpha / dt * a_new - hist + (flat @ c).reshape(r, m) @ c + ops.visc @ c
            if not np.isfinite(np.linalg.norm(res)) or it == 20:
                raise NewtonConvergenceError("diverged", step=n + 1)
            if np.linalg.norm(res) <= 1e-10:
                break
            jac = shift + ((flat @ c).reshape(r, m) + np.matmul(c, ops.tensor))[:, m - r:]
            a_new = a_new + np.linalg.solve(jac, -res)
        a_prev, a = a, a_new
        coeffs.append(a)
        iters.append(it)
    return np.array(coeffs), np.array(iters)


class TestNewtonLoopReference:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_matches_three_contraction_loop(self, rom_setup, projected, form, centering):
        space, snaps, _ = rom_setup
        basis = projected[centering]
        r = min(12, basis.rank)
        ops = assemble_rom_operators(basis, r, form, nu=1 / 2800)
        a0 = project_field(basis, r, snaps.matrix[:, 0], space.mass())
        coeffs, iters = loop_reference(ops, a0, 0.02, 0.5, "bdf2")
        traj = run_rom(ops, a0, 0.02, 0.5, scheme="bdf2")
        assert np.array_equal(traj.newton_iters, iters)
        assert np.abs(traj.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()


class TestNewtonLoopCost:
    @pytest.mark.parametrize("scheme", ["backward_euler", "bdf2"])
    def test_one_contraction_per_evaluated_iterate(self, rom_setup, projected, monkeypatch, scheme):
        space, snaps, _ = rom_setup
        basis = projected["mean"]
        r = min(8, basis.rank)
        ops = assemble_rom_operators(basis, r, "emac", nu=1 / 2800)
        calls = []
        original = RomOperators.quadratic_jacobian

        def counted(self, c):
            calls.append(c.copy())
            return original(self, c)

        monkeypatch.setattr(RomOperators, "quadratic_jacobian", counted)   # quadratic() goes through it too
        a0 = project_field(basis, r, snaps.matrix[:, 0], space.mass())
        traj = run_rom(ops, a0, 0.02, 0.3, scheme=scheme)
        # step n evaluates newton_iters[n] updated iterates plus its start
        assert len(calls) == int(np.sum(traj.newton_iters[1:] + 1))
        # the starts: a^0, then 2 a^n - a^(n-1)
        starts = np.cumsum(np.concatenate([[0], traj.newton_iters[1:-1] + 1]))
        a = traj.coeffs
        assert np.array_equal(calls[0], extend(a[0], basis.centered))
        for n, k in enumerate(starts[1:], start=1):
            assert np.array_equal(calls[k], extend(2.0 * a[n] - a[n - 1], basis.centered))


class TestRomEnergy:
    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_gram_energy_matches_reconstructed_fields(self, rom_setup, projected, centering):
        space, basis = rom_setup[0], projected[centering]
        r = min(10, basis.rank)
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal((4, r))
        energy, enstrophy = rom_energy_enstrophy(basis.projection, basis, coeffs)
        for n, a in enumerate(coeffs):
            e, z = energy_enstrophy(space, reconstruct_field(basis, a))
            assert energy[n] == pytest.approx(e, rel=1e-12)
            assert enstrophy[n] == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_projection_grams_match_sparse_products(self, rom_setup, projected, centering):
        # the quadrature Grams of the projection are X^T M X and X^T G X
        space, basis = rom_setup[0], projected[centering]
        proj = basis.projection
        x = basis.fields(proj.m - int(basis.centered))
        for gram, op in ((proj.mass_gram, space.mass()), (proj.curl_gram, space.curl_form())):
            direct = x.T @ (op @ x)
            assert np.array_equal(gram, gram.T)
            assert np.abs(gram - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_smaller_r_reads_the_leading_fields(self, rom_setup, projected, centering):
        # a projection of more fields serves a trajectory of fewer modes
        space, basis = rom_setup[0], projected[centering]
        r = min(4, basis.rank)
        coeffs = np.random.default_rng(37).standard_normal((3, r))
        small = project_fields(space, basis.fields(r))
        for got, want in zip(rom_energy_enstrophy(basis.projection, basis, coeffs),
                             rom_energy_enstrophy(small, basis, coeffs)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        with pytest.raises(ValueError, match="projection holds"):
            rom_energy_enstrophy(small, basis, np.zeros((1, r + 1)))

    def test_coefficients_stop_at_the_liftings(self, rom_setup, projected):
        # a lifting after three modes is no mode, so four coefficients are refused as
        # the operators refuse r = 4; counting it as one gave the energy 0.5 |a|^2 = 2
        space, basis = rom_setup[0], projected["none"]
        lifted = project_fields(space, basis.fields(4), liftings=1)
        energy, _ = rom_energy_enstrophy(lifted, basis, np.ones(3))
        assert energy == pytest.approx([1.5], rel=1e-12)
        for refused in (lambda: rom_energy_enstrophy(lifted, basis, np.ones(4)),
                        lambda: lifted.operators("skew", 1.0, 0, 4)):
            with pytest.raises(ValueError, match="projection holds 3 fields, 4 requested"):
                refused()


@pytest.fixture(scope="module")
def cylinder_run():
    """Space, snapshots and config of the cylinder's first eight steps from rest (EMAC, BDF2)."""
    space = TaylorHoodSpace(load_bundled_mesh())
    cfg = FomConfig(nu=5e-4, dt=0.0025, t_end=0.02, form="emac", scheme="bdf2", boundary=cylinder_boundary(),
                    drag_label="cylinder", project_initial=True)
    _, snaps, _ = run_fom(cfg, space.mesh, space, build_initial_condition(at_rest, space))
    return space, snaps, cfg


class TestProjectionDrag:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("centering,scheme", [("mean", "bdf2"), ("none", "backward_euler")])
    def test_matches_step_drag_of_reconstructed_states(self, cylinder_run, form, centering, scheme):
        # the FOM's drag function of the reconstructed ROM states, BDF2's theta
        # start in row 1 included, at the projected modes and a leading slice
        space, snaps, run_cfg = cylinder_run
        cfg = dataclasses.replace(run_cfg, form=form, scheme=scheme)
        basis = build_pod_basis(snaps, space, centering=centering)
        o, r_max = int(basis.centered), min(6, basis.rank)
        projection = project_fields(space, np.column_stack([basis.fields(r_max), drag_lifting(space, cfg)]),
                                    liftings=1)
        for r in (r_max, r_max - 2):
            ops = projection.operators(form, cfg.nu, o, r)
            traj = run_rom(ops, basis.coordinates.coeffs[0, :r], cfg.dt, 8 * cfg.dt, scheme=scheme)
            u = [reconstruct_field(basis, a) for a in traj.coeffs]
            want = np.array([step_drag(space, cfg, u[n], u[n - 1], u[n - 2] if n > 1 else None)
                             for n in range(1, len(u))])
            got = projection.drag(cfg, o, traj.coeffs)
            assert np.isnan(got[0])
            assert np.abs(got[1:] - want).max() <= 1e-12 * np.abs(want).max(), r

    def test_lifting_is_no_mode(self, cylinder_run, rom_setup):
        # the operators never reach the lifting, and a projection without one has no drag
        space, snaps, cfg = cylinder_run
        basis = build_pod_basis(snaps, space, centering="mean")
        projection = project_fields(space, np.column_stack([basis.fields(2), drag_lifting(space, cfg)]),
                                    liftings=1)
        assert projection.operators(cfg.form, cfg.nu, 1, 2).r == 2
        with pytest.raises(ValueError, match="projection holds 3 fields, 4 requested"):
            projection.operators(cfg.form, cfg.nu, 1, 3)
        with pytest.raises(ValueError, match="projection holds 3 fields, 4 requested"):
            projection.drag(cfg, 1, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="no drag lifting"):
            rom_setup[2].projection.drag(cfg, 0, np.zeros((2, 3)))


class TestReconstructField:
    def test_unit_vector_gives_mode(self, rom_setup):
        _, _, basis = rom_setup
        e1 = np.zeros(min(3, basis.rank))
        e1[0] = 1.0
        assert np.array_equal(reconstruct_field(basis, e1), basis.modes[:, : e1.size] @ e1)

    def test_zero_gives_mean_when_centered(self, projected):
        basis = projected["mean"]
        u = reconstruct_field(basis, np.zeros(min(3, basis.rank)))
        assert np.array_equal(u, basis.mean)

    def test_round_trip(self, rom_setup):
        space, _, basis = rom_setup
        r = min(6, basis.rank)
        rng = np.random.default_rng(53)
        a = rng.standard_normal(r)
        a2 = project_field(basis, r, reconstruct_field(basis, a), space.mass())
        assert np.abs(a - a2).max() < 1e-12
