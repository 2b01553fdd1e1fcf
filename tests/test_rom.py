import numpy as np
import pytest

from flowrom.diagnostics import energy_enstrophy, rom_energy_enstrophy
from flowrom.fem import NonlinearForm, nonlinear_residual, trilinear_value
from flowrom.pod import PodBasis, build_pod_basis, project_field
from flowrom.rom import (
    RomNewtonError,
    assemble_rom_operators,
    reconstruct_field,
    run_rom,
)

ALL_FORMS = list(NonlinearForm)


@pytest.fixture(scope="module")
def rom_setup(kh_run, kh_basis_session):
    _, space, snaps, _, _ = kh_run
    return space, snaps, kh_basis_session


@pytest.fixture(scope="module")
def wide_basis(rom_setup):
    """32 seeded random fields posing as modes: the shear-layer basis has too few."""
    space, _, _ = rom_setup
    modes = np.random.default_rng(3).standard_normal((space.n_vel, 32))
    ones = np.ones(32)
    return PodBasis(modes=modes, eigenvalues=ones, spectrum=ones, grad_norms=ones)


class TestAssembleRomOperators:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_tensor_entries_match_direct_quadrature(self, rom_setup, wide_basis, form):
        space, _, _ = rom_setup
        basis = wide_basis
        r = min(30, basis.rank)
        ops = assemble_rom_operators(space, basis, r, form, nu=1 / 2800)
        rng = np.random.default_rng(99)
        corners = [(0, 0, 0), (r - 1, r - 1, r - 1), (0, r - 1, 0), (r - 1, 0, r - 1)]
        for i, j, k in corners + [tuple(rng.integers(0, r, size=3)) for _ in range(12)]:
            direct = trilinear_value(space, form, basis.modes[:, j], basis.modes[:, k],
                                     basis.modes[:, i])
            scale = np.abs(ops.tensor).max()
            assert ops.tensor[i, j, k] == pytest.approx(direct, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("form", ["skew", "emac", "rotational"])
    def test_quadratic_energy_identity(self, rom_setup, form):
        # a^T N(a) = b(w, w, w) = 0 carries over to the reduced tensor for
        # the energy-conserving forms (rotational: pointwise orthogonality)
        space, _, basis = rom_setup
        r = min(8, basis.rank)
        ops = assemble_rom_operators(space, basis, r, form, nu=1 / 2800)
        scale = np.abs(ops.tensor).max()
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal(r)
            val = a @ ops.quadratic(a)
            assert abs(val) <= 1e-11 * scale * np.linalg.norm(a) ** 3

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_quadratic_kernels_match_einsum_definitions(self, rom_setup, form):
        space, _, basis = rom_setup
        r = min(12, basis.rank)
        ops = assemble_rom_operators(space, basis, r, form, nu=1 / 2800)
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal(r)
            quad = np.einsum("ijk,j,k->i", ops.tensor, a, a)
            jac = np.einsum("ijk,k->ij", ops.tensor, a) + np.einsum("ikj,k->ij", ops.tensor, a)
            n_a, j_a = ops.quadratic(a), ops.quadratic_jacobian(a)
            assert np.abs(n_a - quad).max() <= 1e-13 * np.abs(quad).max()
            assert np.abs(j_a - jac).max() <= 1e-13 * np.abs(jac).max()
            assert np.abs(j_a @ a - 2.0 * n_a).max() <= 1e-13 * np.abs(n_a).max()

    def test_viscous_matrix(self, rom_setup):
        space, _, basis = rom_setup
        r = min(5, basis.rank)
        nu = 0.37
        ops = assemble_rom_operators(space, basis, r, "skew", nu=nu)
        stiff = space.stiffness()
        direct = nu * basis.modes[:, :r].T @ (stiff @ basis.modes[:, :r])
        assert np.abs(ops.visc - direct).max() < 1e-12 * np.abs(direct).max()
        assert np.all(np.linalg.eigvalsh(ops.visc) > -1e-12)

    def test_uncentered_has_no_mean_coupling(self, rom_setup):
        # without a mean the field set is the r modes alone
        space, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "emac", nu=0.01)
        assert ops.tensor.shape == (r, r, r)
        assert ops.visc.shape == (r, r)

    def test_centered_mean_coupling_matches_direct(self, rom_setup):
        # field 0 is the mean: its couplings and the constant are entries of the operators
        space, snaps, _ = rom_setup
        basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering="mean")
        r = min(4, basis.rank)
        nu = 1 / 2800
        ops = assemble_rom_operators(space, basis, r, "convective", nu=nu)
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
    def test_reduced_residual_is_projected_fom_residual(self, rom_setup, centering, form):
        # N(c) + V c = Psi_r^T (b(w, w, .) + nu K w) at w = X c, c = [1, a] when centered
        space, snaps, _ = rom_setup
        basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering=centering)
        r = min(8, basis.rank)
        nu = 1 / 2800
        ops = assemble_rom_operators(space, basis, r, form, nu=nu)
        rng = np.random.default_rng(61)
        a, d = rng.standard_normal((2, r))
        c = ops.extend(a)
        assert np.array_equal(c, basis.extend(a))
        w = basis.fields(r) @ c
        full = nonlinear_residual(space, form, w) + nu * (space.stiffness() @ w)
        expected = basis.modes[:, :r].T @ full
        reduced = ops.quadratic(c) + ops.visc @ c
        assert np.abs(reduced - expected).max() <= 1e-11 * np.abs(expected).max()
        # the Jacobian is exact: a central difference of the quadratic term is too
        diff = 0.5 * (ops.quadratic(ops.extend(a + d)) - ops.quadratic(ops.extend(a - d)))
        jd = ops.quadratic_jacobian(c) @ d
        assert np.abs(jd - diff).max() <= 1e-11 * np.abs(diff).max()

    def test_rank_overflow(self, rom_setup):
        space, _, basis = rom_setup
        with pytest.raises(ValueError, match="rank"):
            assemble_rom_operators(space, basis, basis.rank + 1, "skew", nu=0.1)

    def test_rerun_is_bit_identical(self, rom_setup):
        space, _, basis = rom_setup
        r = min(6, basis.rank)
        ops1 = assemble_rom_operators(space, basis, r, "emac", nu=0.02)
        ops2 = assemble_rom_operators(space, basis, r, "emac", nu=0.02)
        assert np.array_equal(ops1.tensor, ops2.tensor)
        assert np.array_equal(ops1.visc, ops2.visc)


class TestRunRom:
    def test_pure_viscous_decay_matches_linear_recurrence(self, rom_setup):
        space, _, basis = rom_setup
        r = min(6, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "skew", nu=0.05)
        ops.tensor[:] = 0.0
        rng = np.random.default_rng(31)
        a0 = rng.standard_normal(r)
        dt, nsteps = 0.1, 12
        traj = run_rom(ops, a0, dt, dt * nsteps, scheme="backward_euler", newton_tol=1e-13)
        a = a0.copy()
        mat = np.eye(r) + dt * ops.visc
        for n in range(nsteps):
            a = np.linalg.solve(mat, a)
            assert np.abs(traj.coeffs[n + 1] - a).max() < 1e-11

    def test_zero_initial_state_stays_zero(self, rom_setup):
        space, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "skew", nu=0.05)
        traj = run_rom(ops, np.zeros(r), 0.05, 0.5)
        assert np.all(traj.coeffs == 0.0)
        assert traj.times[-1] == pytest.approx(0.5)
        assert np.all(traj.newton_iters == 0)  # the initial guess already solves every step

    def test_records_newton_iterations(self, rom_setup):
        space, snaps, basis = rom_setup
        r = min(8, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "skew", nu=1 / 2800)
        a0 = project_field(basis, r, snaps.matrix[:, 0], space.mass())
        traj = run_rom(ops, a0, 0.02, 0.2, scheme="bdf2")
        assert traj.newton_iters.shape == traj.times.shape
        assert traj.newton_iters[0] == 0
        assert np.all((traj.newton_iters[1:] >= 1) & (traj.newton_iters[1:] <= 20))

    def test_newton_blowup_reports_step(self, rom_setup):
        space, _, basis = rom_setup
        r = min(4, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "skew", nu=1e-6)
        ops.tensor[:] = 0.0
        # a stiff unstable linear term the dt cannot resolve: backward Euler
        # still solves it, so force failure via the iteration budget
        ops.visc[:] = -1e8 * np.eye(r)
        with pytest.raises(RomNewtonError) as err:
            run_rom(ops, np.ones(r), 1e-8, 1e-7, newton_tol=1e-30, newton_max_iter=1)
        assert err.value.step >= 1

    def test_bdf2_starts_with_backward_euler(self, rom_setup):
        space, _, basis = rom_setup
        r = min(5, basis.rank)
        ops = assemble_rom_operators(space, basis, r, "skew", nu=0.05)
        rng = np.random.default_rng(41)
        a0 = rng.standard_normal(r)
        t_be = run_rom(ops, a0, 0.02, 0.02, scheme="backward_euler")
        t_bdf = run_rom(ops, a0, 0.02, 0.04, scheme="bdf2")
        assert np.abs(t_be.coeffs[1] - t_bdf.coeffs[1]).max() < 1e-9


class TestRomEnergy:
    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_gram_energy_matches_reconstructed_fields(self, rom_setup, centering):
        space, snaps, _ = rom_setup
        basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering=centering)
        r = min(10, basis.rank)
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal((4, r))
        energy, enstrophy = rom_energy_enstrophy(space, basis, coeffs)
        for n, a in enumerate(coeffs):
            e, z = energy_enstrophy(space, reconstruct_field(basis, a))
            assert energy[n] == pytest.approx(e, rel=1e-12)
            assert enstrophy[n] == pytest.approx(z, rel=1e-12)


class TestReconstructField:
    def test_unit_vector_gives_mode(self, rom_setup):
        _, _, basis = rom_setup
        e1 = np.zeros(min(3, basis.rank))
        e1[0] = 1.0
        assert np.array_equal(reconstruct_field(basis, e1), basis.modes[:, : e1.size] @ e1)

    def test_zero_gives_mean_when_centered(self, rom_setup):
        space, snaps, _ = rom_setup
        basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering="mean")
        u = reconstruct_field(basis, np.zeros(min(3, basis.rank)))
        assert np.array_equal(u, basis.mean)

    def test_round_trip(self, rom_setup):
        space, _, basis = rom_setup
        r = min(6, basis.rank)
        rng = np.random.default_rng(53)
        a = rng.standard_normal(r)
        a2 = project_field(basis, r, reconstruct_field(basis, a), space.mass())
        assert np.abs(a - a2).max() < 1e-12
