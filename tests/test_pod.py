import numpy as np
import pytest

from flowrom.fom import kelvin_helmholtz_boundary
from flowrom.pod import (
    SnapshotCoordinates,
    SnapshotSet,
    build_pod_basis,
    pod_projection_error,
    project_field,
)


@pytest.fixture(scope="module")
def kh_snapshots(kh_run):
    _, space, snaps, _, _ = kh_run
    return space, snaps


@pytest.fixture(scope="module")
def kh_basis(kh_snapshots, kh_basis_session):
    space, snaps = kh_snapshots
    return space, snaps, kh_basis_session


class TestBuildPodBasis:
    def test_single_snapshot(self, kh_snapshots):
        space, snaps = kh_snapshots
        u = snaps.matrix[:, 3]
        single = SnapshotSet(matrix=u[:, None], times=snaps.times[3:4])
        mass = space.mass()
        basis = build_pod_basis(single, space)
        norm_sq = float(u @ (mass @ u))
        assert basis.rank == 1
        assert basis.eigenvalues[0] == pytest.approx(norm_sq, rel=1e-12)
        assert np.allclose(basis.modes[:, 0], u / np.sqrt(norm_sq), atol=1e-12)

    def test_two_orthogonal_equal_norm_snapshots(self, kh_snapshots):
        space, _ = kh_snapshots
        mass = space.mass()
        rng = np.random.default_rng(12)
        a = rng.standard_normal(space.n_vel)
        b = rng.standard_normal(space.n_vel)
        b -= (a @ (mass @ b)) / (a @ (mass @ a)) * a
        a /= np.sqrt(a @ (mass @ a))
        b /= np.sqrt(b @ (mass @ b))
        snaps = SnapshotSet(matrix=np.column_stack([a, b]), times=np.array([0.0, 1.0]))
        basis = build_pod_basis(snaps, space)
        assert basis.rank == 2
        assert np.allclose(basis.eigenvalues, 0.5, rtol=1e-10)
        # modes span the same 2D space: projector equality
        modes = basis.modes
        proj_basis = modes @ (modes.T @ mass)
        snapmat = np.column_stack([a, b])
        proj_snaps = snapmat @ (snapmat.T @ mass)
        assert np.abs(proj_basis @ snapmat - proj_snaps @ snapmat).max() < 1e-10

    def test_orthonormality(self, kh_basis):
        space, _, basis = kh_basis
        gram = basis.modes.T @ (space.mass() @ basis.modes)
        off = gram - np.eye(basis.rank)
        assert np.abs(off).max() <= 1e-10

    def test_modes_discretely_divergence_free(self, kh_basis):
        space, _, basis = kh_basis
        div = space.divergence()
        for k in range(basis.rank):
            assert np.linalg.norm(div @ basis.modes[:, k]) <= 1e-8

    def test_trace_identity(self, kh_basis):
        space, snaps, basis = kh_basis
        mass = space.mass()
        mean_energy = np.mean(np.einsum("ij,ij->j", snaps.matrix, mass @ snaps.matrix))
        assert basis.spectrum.sum() == pytest.approx(mean_energy, rel=1e-10)

    def test_eigenvalues_descending_positive(self, kh_basis):
        _, _, basis = kh_basis
        lam = basis.eigenvalues
        assert np.all(lam[:-1] >= lam[1:] * (1 - 1e-12))
        assert np.all(lam > 0)

    def test_zero_snapshots_error(self, kh_snapshots):
        space, _ = kh_snapshots
        snaps = SnapshotSet(matrix=np.zeros((space.n_vel, 3)), times=np.arange(3.0))
        with pytest.raises(ValueError, match="rank 0"):
            build_pod_basis(snaps, space)

    def test_centering_gives_homogeneous_modes_on_shared_boundary(self, kh_snapshots):
        space, snaps = kh_snapshots
        basis = build_pod_basis(snaps, space, centering="mean")
        mask, _ = space.dirichlet_data(kelvin_helmholtz_boundary())
        assert np.abs(basis.modes[mask, :]).max() < 1e-9
        assert basis.centered
        assert basis.mean.shape == (space.n_vel,)


    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_coordinates_match_two_pass_reference(self, kh_snapshots, centering):
        # every coordinate field rebuilt from the snapshot matrix and the finished modes
        space, snaps = kh_snapshots
        mass, stiff = space.mass(), space.stiffness()
        basis = build_pod_basis(snaps, space, centering=centering)
        modes, x = basis.modes, snaps.matrix
        xc = x - basis.mean[:, None] if basis.centered else x
        coeffs = modes.T @ (mass @ xc)
        outside = xc - modes @ coeffs
        want = SnapshotCoordinates(
            times=snaps.times,
            coeffs=coeffs.T,
            outside_stiff=(modes.T @ (stiff @ outside)).T,
            outside_mass_sq=np.einsum("ij,ij->j", outside, mass @ outside),
            outside_stiff_sq=np.einsum("ij,ij->j", outside, stiff @ outside),
            h1_norms=np.sqrt(np.einsum("ij,ij->j", x, stiff @ x)),
            div_norms=np.sqrt(np.einsum("ij,ij->j", x, space.div_form() @ x)),
            stiff_gram=modes.T @ (stiff @ modes),
        )
        got = basis.coordinates
        assert np.array_equal(got.times, snaps.times)
        # roundoff of the snapshots' size: |Psi^T K w| <= max|grad psi| ||w||_K
        u_m = np.sqrt(np.einsum("ij,ij->j", xc, mass @ xc).max())
        u_k = np.sqrt(np.einsum("ij,ij->j", xc, stiff @ xc).max())
        grad = basis.grad_norms.max()
        size = {"coeffs": u_m, "outside_mass_sq": u_m**2, "outside_stiff": grad * u_k,
                "outside_stiff_sq": u_k**2, "h1_norms": want.h1_norms.max(),
                "div_norms": want.div_norms.max(), "stiff_gram": grad**2}
        for name, scale in size.items():
            diff = np.abs(getattr(got, name) - getattr(want, name)).max()
            assert diff <= 64 * np.finfo(float).eps * scale, (name, diff / scale)


class TestProjectionErrorEquality:
    def test_full_rank_exact_for_exact_rank_snapshots(self, kh_snapshots):
        # with snapshots of exact numerical rank, the full basis reproduces
        # them and both sides vanish
        space, _ = kh_snapshots
        stiff = space.stiffness()
        rng = np.random.default_rng(3)
        a = rng.standard_normal(space.n_vel)
        b = rng.standard_normal(space.n_vel)
        snaps = SnapshotSet(matrix=np.column_stack([a, b, a + 2 * b, a - b]),
                            times=np.arange(4.0))
        basis = build_pod_basis(snaps, space)
        assert basis.rank == 2
        lhs, rhs = pod_projection_error(basis)
        assert rhs[basis.rank] == 0.0
        assert abs(lhs[basis.rank]) <= 1e-10 * float(np.einsum("ij,ij->j", snaps.matrix, stiff @ snaps.matrix).mean())

    def test_r_zero_matches_total(self, kh_basis):
        space, snaps, basis = kh_basis
        stiff = space.stiffness()
        lhs, rhs = pod_projection_error(basis)
        direct = np.mean(np.einsum("ij,ij->j", snaps.matrix, stiff @ snaps.matrix))
        assert lhs[0] == pytest.approx(direct, rel=1e-12)
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-8)

    def test_equality_every_rank(self, kh_basis):
        # The 1e-12 rank cutoff discards a spectral tail whose gradient
        # energy enters the direct residual (lhs) identically at every r but
        # never the eigenvalue sum (rhs).  Correcting for that single forced
        # term, the equality holds to 1e-8 relative at every rank; on ranks
        # where the tail is negligible the uncorrected equality holds too.
        basis = kh_basis[2]
        lhs_r, rhs_r = pod_projection_error(basis)
        tail, total = lhs_r[basis.rank], rhs_r[0]
        assert tail <= 1e-9 * total
        for r in range(basis.rank + 1):
            lhs, rhs = lhs_r[r], rhs_r[r]
            assert abs(lhs - tail - rhs) <= 1e-8 * rhs + 1e-4 * tail, (r, lhs, rhs)
            if 1e-8 * rhs >= 10.0 * tail:
                assert abs(lhs - rhs) <= 1e-8 * rhs, (r, lhs, rhs)

    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_matches_per_rank_residuals(self, kh_snapshots, centering):
        # reference: the out-of-basis residual rebuilt and measured at each r
        space, snaps = kh_snapshots
        mass, stiff = space.mass(), space.stiffness()
        basis = build_pod_basis(snaps, space, centering=centering)
        lhs, rhs = pod_projection_error(basis)
        assert lhs.shape == rhs.shape == (basis.rank + 1,)
        xc = snaps.matrix - basis.mean[:, None] if basis.centered else snaps.matrix
        for r in range(basis.rank + 1):
            resid = xc - basis.modes[:, :r] @ (basis.modes[:, :r].T @ (mass @ xc))
            ref_lhs = np.einsum("ij,ij->j", resid, stiff @ resid).mean()
            ref_rhs = np.sum(basis.grad_norms[r:] ** 2 * basis.eigenvalues[r:])
            assert abs(lhs[r] - ref_lhs) <= 1e-11 * ref_lhs, (r, lhs[r], ref_lhs)
            assert abs(rhs[r] - ref_rhs) <= 1e-14 * ref_rhs, (r, rhs[r], ref_rhs)


class TestProjectField:
    def test_mode_projects_to_unit_vector(self, kh_basis):
        space, _, basis = kh_basis
        a = project_field(basis, basis.rank, basis.modes[:, 0], space.mass())
        expect = np.zeros(basis.rank)
        expect[0] = 1.0
        assert np.allclose(a, expect, atol=1e-12)

    def test_mean_projects_to_zero_when_centered(self, kh_snapshots):
        space, snaps = kh_snapshots
        basis = build_pod_basis(snaps, space, centering="mean")
        a = project_field(basis, basis.rank, basis.mean, space.mass())
        assert np.abs(a).max() < 1e-12

    def test_pythagoras(self, kh_basis):
        space, _, basis = kh_basis
        mass = space.mass()
        rng = np.random.default_rng(77)
        u = rng.standard_normal(space.n_vel)
        r = min(basis.rank, 5)
        a = project_field(basis, r, u, mass)
        recon = basis.modes[:, :r] @ a
        resid = u - recon
        lhs = resid @ (mass @ resid) + recon @ (mass @ recon)
        rhs = u @ (mass @ u)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_projector_idempotence(self, kh_basis):
        space, _, basis = kh_basis
        mass = space.mass()
        rng = np.random.default_rng(78)
        u = rng.standard_normal(space.n_vel)
        r = basis.rank
        a = project_field(basis, r, u, mass)
        from flowrom.rom import reconstruct_field

        a2 = project_field(basis, r, reconstruct_field(basis, a), mass)
        assert np.abs(a - a2).max() <= 1e-12 * max(1.0, np.abs(a).max())
