from itertools import accumulate

import numpy as np
import pytest
from scipy.integrate import quad

from flowrom.diagnostics import (
    ScalarSeries,
    energy_enstrophy,
    reduced_trajectory_error,
    trajectory_error,
)
from flowrom.fem import TaylorHoodSpace
from flowrom.fom import build_initial_condition, cylinder_boundary, kelvin_helmholtz_velocity
from flowrom.mesh import identify_periodic, load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import uniform_step
from flowrom.pod import SnapshotCoordinates, SnapshotSet, build_pod_basis, project_field
from flowrom.rom import RomTrajectory, assemble_rom_operators, reconstruct_field, run_rom

from conftest import with_projection


@pytest.fixture(scope="module")
def cylinder_space():
    return TaylorHoodSpace(load_bundled_mesh())


class TestScalarSeries:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            ScalarSeries(times=np.arange(3.0), values=np.arange(4.0))

    def test_validates_monotone_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ScalarSeries(times=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))


class TestEnergyEnstrophy:
    def test_zero(self, square8):
        _, space = square8
        assert energy_enstrophy(space, np.zeros(space.n_vel)) == (0.0, 0.0)

    def test_uniform_stream(self, square8):
        _, space = square8
        u = build_initial_condition(lambda x, y, t: (np.ones_like(x), np.zeros_like(x)), space)
        energy, enstrophy = energy_enstrophy(space, u)
        assert energy == pytest.approx(0.5, rel=1e-12)
        assert enstrophy < 1e-13

    def test_kh_energy_against_1d_quadrature(self):
        mesh = uniform_rect_mesh(32, 32)
        space = TaylorHoodSpace(mesh)
        u = build_initial_condition(kelvin_helmholtz_velocity, space)
        energy, _ = energy_enstrophy(space, u)
        # the ripple contributes O(1e-6); the tanh profile carries the energy
        exact = 0.5 * quad(lambda y: np.tanh(28 * (2 * y - 1)) ** 2, 0.0, 1.0, limit=200)[0]
        assert abs(energy - exact) / exact < 0.005

    def test_rom_energy_shortcut(self, kh_run, kh_basis_session):
        _, space, _, _, _ = kh_run
        basis = kh_basis_session
        r = min(6, basis.rank)
        rng = np.random.default_rng(2)
        a = rng.standard_normal(r)
        energy, _ = energy_enstrophy(space, reconstruct_field(basis, a))
        assert energy == pytest.approx(0.5 * float(a @ a), rel=1e-10)


def directed_side_cells(mesh, edges):
    """The triangle holding each oriented boundary edge as a counterclockwise side,
    from a dict over every triangle's directed sides."""
    directed = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed[(int(a), int(b))] = t
    return np.array([directed[(int(a), int(b))] for a, b in edges], dtype=int)


class TestBoundaryCells:
    @pytest.mark.parametrize("label", ["inflow", "outflow", "wall", "cylinder"])
    def test_cylinder_matches_directed_side_reference(self, cylinder_space, label):
        mesh = cylinder_space.mesh
        edges = mesh.boundary_edges[mesh.boundary_edges_with_label(label)]
        cells = cylinder_space.edge_table().cells[mesh.boundary_edges_with_label(label)]
        assert np.array_equal(cells, directed_side_cells(mesh, edges))

    @pytest.mark.parametrize("label", ["left", "right", "top", "bottom"])
    def test_rect_matches_directed_side_reference(self, label):
        space = TaylorHoodSpace(identify_periodic(uniform_rect_mesh(5, 4), "x"))
        mesh = space.mesh
        edges = mesh.boundary_edges[mesh.boundary_edges_with_label(label)]
        cells = space.edge_table().cells[mesh.boundary_edges_with_label(label)]
        assert np.array_equal(cells, directed_side_cells(mesh, edges))


class TestTrajectoryError:
    def test_identical_trajectories(self, kh_run, kh_basis_session):
        _, space, snaps, _, cfg = kh_run
        basis = kh_basis_session
        r = basis.rank
        coeffs = np.column_stack([
            project_field(basis, r, snaps.matrix[:, j], space.mass())
            for j in range(snaps.count)
        ]).T
        traj = RomTrajectory(coeffs=coeffs, times=snaps.times - snaps.times[0])
        err = trajectory_error(space, snaps, traj, basis, cfg.nu)
        # reconstruction error = pure POD projection error: only the spectral
        # tail below the rank cutoff survives
        assert err.linf_l2 < 5e-6
        assert err.l2_h1 < 1e-10
        assert err.c_u > 0

    def test_projected_trajectory_matches_projection_error(self, kh_run, kh_basis_session):
        _, space, snaps, _, cfg = kh_run
        basis = kh_basis_session
        r = min(4, basis.rank)
        mass = space.mass()
        coeffs = np.column_stack([
            project_field(basis, r, snaps.matrix[:, j], mass) for j in range(snaps.count)
        ]).T
        traj = RomTrajectory(coeffs=coeffs, times=snaps.times - snaps.times[0])
        err = trajectory_error(space, snaps, traj, basis, cfg.nu)
        per_step = []
        for j in range(snaps.count):
            d = reconstruct_field(basis, coeffs[j]) - snaps.matrix[:, j]
            per_step.append(np.sqrt(d @ (mass @ d)))
        assert err.linf_l2 == pytest.approx(max(per_step), rel=1e-12)

    def test_snapshot_norms_follow_the_snapshot_set(self, kh_run, kh_basis_session):
        # c_u is read from the snapshot set passed
        _, space, snaps, _, cfg = kh_run
        basis = kh_basis_session
        traj = RomTrajectory(coeffs=np.zeros((snaps.count, 2)), times=snaps.times - snaps.times[0])
        first = trajectory_error(space, snaps, traj, basis, cfg.nu)
        doubled = trajectory_error(space, SnapshotSet(2.0 * snaps.matrix, snaps.times), traj, basis, cfg.nu)
        again = trajectory_error(space, snaps, traj, basis, cfg.nu)
        assert doubled.c_u == pytest.approx(2.0 * first.c_u, rel=1e-14)
        assert again.c_u == first.c_u

    def test_time_grid_mismatch(self, kh_run, kh_basis_session):
        _, space, snaps, _, cfg = kh_run
        basis = kh_basis_session
        traj = RomTrajectory(coeffs=np.zeros((snaps.count - 1, 2)), times=snaps.times[:-1])
        with pytest.raises(ValueError, match="grids"):
            trajectory_error(space, snaps, traj, basis, cfg.nu)


@pytest.fixture(scope="module")
def cylinder_snapshots(cylinder_space):
    """31 seeded snapshots carrying the inflow, with amplitudes from 1 down to 1e-8.25.

    Mean-centered, the default rank cutoff keeps 8 of the 12 directions, so
    the part outside the basis is about 1e-6 of the snapshots.
    """
    space = cylinder_space
    mask, values = space.dirichlet_data(cylinder_boundary())
    rng = np.random.default_rng(11)
    fields = rng.standard_normal((space.n_vel, 12)) * 10.0 ** (-0.75 * np.arange(12))
    fields[mask] = 0.0
    times = 0.01 * np.arange(31)
    coef = np.cos(np.outer(times, 300.0 * np.arange(1, 13)) + rng.uniform(0.0, 6.0, 12))
    snaps = SnapshotSet(matrix=values[:, None] + fields @ coef.T, times=times)
    return space, snaps, build_pod_basis(snaps, space, centering="mean")


class TestReducedTrajectoryError:
    """The reduced path against the full-field reference :func:`trajectory_error`."""

    @staticmethod
    def _trajectories(case, kh_run, kh_basis_session, cylinder_snapshots):
        """(space, snapshots, basis, nu, trajectories) of one case."""
        if case == "cylinder":  # centered: projected coefficients, perturbed at three sizes
            space, snaps, basis = cylinder_snapshots
            coeffs = basis.coordinates.coeffs
            rng = np.random.default_rng(12)
            trajs = [coeffs[:, :r] + scale * rng.standard_normal((snaps.count, r))
                     for r in (1, 4, basis.rank) for scale in (0.0, 1e-6, 1e-2)]
            return space, snaps, basis, 5e-4, trajs
        _, space, snaps, _, cfg = kh_run  # uncentered: ROMs of every form, projected coefficients
        basis = with_projection(space, kh_basis_session, kh_basis_session.rank)
        coeffs = basis.coordinates.coeffs
        trajs = [coeffs[:, :1], coeffs]
        for form in ("skew", "emac", "convective", "rotational"):
            for r in (2, 6, basis.rank):
                ops = assemble_rom_operators(basis, r, form, cfg.nu)
                trajs.append(run_rom(ops, coeffs[0, :r], cfg.dt, cfg.t_end, cfg.scheme).coeffs)
        return space, snaps, basis, cfg.nu, trajs

    @pytest.mark.parametrize("case", ["kh", "cylinder"])
    def test_matches_full_field_reference(self, kh_run, kh_basis_session, cylinder_snapshots, case):
        # Bounds are roundoff of the snapshots' size, not of the error: the
        # measured worst cases are 1.1 eps max||u||_M (linf_l2) and
        # 0.32 eps nu dt N max||u||_K^2 (l2_h1), which is up to 1.2e-11 of a
        # small error.  c_u is the same number.
        space, snaps, basis, nu, trajs = self._trajectories(case, kh_run, kh_basis_session,
                                                            cylinder_snapshots)
        coords = basis.coordinates
        u = snaps.matrix
        eps = np.finfo(float).eps
        u_l2 = np.sqrt(np.einsum("ij,ij->j", u, space.mass() @ u).max())
        u_h1sq = np.einsum("ij,ij->j", u, space.stiffness() @ u).max()
        dt = float(snaps.times[1] - snaps.times[0])
        for coeffs in trajs:
            traj = RomTrajectory(coeffs=coeffs, times=snaps.times - snaps.times[0])
            full = trajectory_error(space, snaps, traj, basis, nu)
            reduced = reduced_trajectory_error(coords, traj, nu)
            assert abs(reduced.linf_l2 - full.linf_l2) <= 32 * eps * u_l2
            assert abs(reduced.l2_h1 - full.l2_h1) <= 4 * eps * nu * dt * snaps.count * u_h1sq
            assert reduced.c_u == full.c_u

    def test_checks_grid_and_rank(self, kh_run, kh_basis_session):
        _, space, snaps, _, cfg = kh_run
        coords = kh_basis_session.coordinates
        short = RomTrajectory(coeffs=np.zeros((snaps.count - 1, 2)), times=snaps.times[:-1])
        with pytest.raises(ValueError, match="grids"):
            reduced_trajectory_error(coords, short, cfg.nu)
        wide = RomTrajectory(coeffs=np.zeros((snaps.count, kh_basis_session.rank + 1)), times=snaps.times)
        with pytest.raises(ValueError, match="basis rank"):
            reduced_trajectory_error(coords, wide, cfg.nu)

    def test_accepts_rom_times_on_a_running_sum_grid(self):
        # The FOM records its times as running sums of dt; rom writes t0 + h n
        # with h = uniform_step(times).  At dt = 1e-3, 100,000 steps and
        # stride 10 the two grids differ by 1.1e-10.
        times = np.array(list(accumulate([1e-3] * 100_000, initial=0.0))[::10])
        n = times.size
        coords = SnapshotCoordinates(times=times, coeffs=np.ones((n, 1)), outside_stiff=np.zeros((n, 1)),
                                     outside_mass_sq=np.zeros(n), outside_stiff_sq=np.zeros(n),
                                     h1_norms=np.ones(n), div_norms=np.zeros(n), stiff_gram=np.eye(1))
        rom_times = times[0] + uniform_step(times) * np.arange(n)
        assert np.abs(rom_times - times).max() > 1e-10
        err = reduced_trajectory_error(coords, RomTrajectory(coeffs=np.ones((n, 1)), times=rom_times), 1.0)
        assert err.linf_l2 == 0.0
        scaled = RomTrajectory(coeffs=np.ones((n, 1)), times=rom_times * (1 + 1e-7))
        with pytest.raises(ValueError, match="grids"):
            reduced_trajectory_error(coords, scaled, 1.0)
