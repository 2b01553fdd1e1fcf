"""Scalar and trajectory diagnostics: energy, enstrophy, error functionals.

The drag is the force of the discrete momentum equation and lives with
the time step that defines it (``fom.step_drag``); a ROM's is read off its
projection (``rom.RomProjection.drag``), as are its energy and enstrophy
(:func:`rom_energy_enstrophy`).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import times_agree, uniform_step


@dataclass
class ScalarSeries:
    """A time series with strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass
class TrajectoryError:
    """Error functionals between a reduced trajectory and the snapshots.

    ``linf_l2`` is max_n ||w^n - u^n||, ``l2_h1`` the viscous-weighted sum
    nu dt sum_n ||grad(w^n - u^n)||^2 and ``c_u`` the max FOM gradient norm.
    """

    linf_l2: float
    l2_h1: float
    c_u: float


def energy_enstrophy(space, u):
    """Kinetic energy 0.5 ||u||^2 and enstrophy 0.5 ||curl u||^2."""
    u = space._check_velocity(u)
    energy = 0.5 * float(u @ (space.mass() @ u))
    enstrophy = 0.5 * float(u @ (space.curl_form() @ u))
    return energy, enstrophy


def rom_energy_enstrophy(projection, basis, coeffs):
    """Energy and enstrophy series of the reduced states ubar + sum_j a^n_j psi_j.

    ``coeffs`` holds one state per row.  The fields are never rebuilt: with
    X = [ubar, psi_1..psi_r] (ubar dropped for an uncentered basis) and
    c^n = [1, a^n] (``PodBasis.fields``/``extend``), the values are
    1/2 c^T (X^T M X) c and 1/2 c^T (X^T G X) c, read from the mass and curl
    Grams of ``projection`` (a ``rom.RomProjection`` of at least these fields).
    """
    c = basis.extend(np.atleast_2d(coeffs))
    n = c.shape[1]
    if n > projection.m:
        raise ValueError(f"projection holds {projection.m} fields, {n} requested")
    return tuple(0.5 * np.einsum("ni,ni->n", c @ gram[:n, :n], c)
                 for gram in (projection.mass_gram, projection.curl_gram))


def _column_norms(u, op):
    """The ``op``-norm of every column of ``u``."""
    return np.sqrt(np.clip(np.einsum("ij,ij->j", u, op @ u), 0.0, None))


def _grid_step(times, trajectory_times):
    """``numerics.uniform_step(times)``, once the trajectory's times agree with ``times`` from their start."""
    dt = uniform_step(times)
    if times.size != trajectory_times.size or not times_agree(trajectory_times - trajectory_times[0],
                                                              times - times[0]).all():
        raise ValueError("snapshot and trajectory time grids do not match")
    return dt


def trajectory_error(space, snapshots, trajectory, basis, nu):
    """Theorem-style error functionals of a ROM trajectory vs FOM snapshots.

    The time grids must match exactly and be uniform.  The max-norm error
    covers every recorded time; the viscous-weighted gradient sum and
    ``c_u`` run over n >= 1 as in the discrete error bound.  This is the
    full-field reference of :func:`reduced_trajectory_error`.
    """
    dt = _grid_step(snapshots.times, trajectory.times)

    recon = basis.fields(trajectory.coeffs.shape[1]) @ basis.extend(trajectory.coeffs).T
    err = recon - snapshots.matrix

    err_l2 = _column_norms(err, space.mass())
    err_h1sq = np.clip(np.einsum("ij,ij->j", err, space.stiffness() @ err), 0.0, None)
    u_h1 = _column_norms(snapshots.matrix, space.stiffness())

    return TrajectoryError(
        linf_l2=float(err_l2.max()),
        l2_h1=float(nu * dt * err_h1sq[1:].sum()),
        c_u=float(u_h1[1:].max()),
    )


def reduced_trajectory_error(coordinates, trajectory, nu):
    """:func:`trajectory_error` from the snapshots' ``pod.SnapshotCoordinates``.

    No field is formed.  A trajectory a^n on the leading r modes has the
    error e^n = Psi d^n - w^n, with d^n = [a^n - a_hat^n_{:r}, -a_hat^n_{r:}]
    and w^n the snapshot's part outside the basis.  The modes are
    M-orthonormal and M-orthogonal to w^n, so

        ||e^n||_M^2 = |d^n|^2 + ||w^n||_M^2,
        ||e^n||_K^2 = d^n . (Psi^T K Psi) d^n - 2 d^n . (Psi^T K w^n) + ||w^n||_K^2,

    O(rank^2) per state.  These equal the full-field values up to roundoff
    relative to the snapshots' norms; ``c_u`` is read from the stored
    snapshot gradient norms.
    """
    dt = _grid_step(coordinates.times, trajectory.times)
    a = trajectory.coeffs
    rank = coordinates.coeffs.shape[1]
    if a.shape[1] > rank:
        raise ValueError(f"trajectory has {a.shape[1]} modes, the basis rank is {rank}")

    d = -coordinates.coeffs
    d[:, : a.shape[1]] += a
    err_l2 = np.sqrt(np.clip(np.einsum("ni,ni->n", d, d) + coordinates.outside_mass_sq, 0.0, None))
    err_h1sq = np.clip(np.einsum("ni,ni->n", d @ coordinates.stiff_gram - 2.0 * coordinates.outside_stiff, d)
                       + coordinates.outside_stiff_sq, 0.0, None)

    return TrajectoryError(
        linf_l2=float(err_l2.max()),
        l2_h1=float(nu * dt * err_h1sq[1:].sum()),
        c_u=float(coordinates.h1_norms[1:].max()),
    )
