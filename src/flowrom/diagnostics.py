"""Scalar and trajectory diagnostics: energy, enstrophy, drag, error functionals.

The drag coefficient follows the channel-benchmark definition

    c_d(t) = 20 * integral over the cylinder of (nu du_t/dn n_y - p n_x) dS,

with ``n`` the unit normal on the cylinder directed into the fluid, the
tangent ``t = (n_y, -n_x)``, and the factor 20 = 2/(U^2 D) from the mean
inflow speed and cylinder diameter.  The line integral uses 3-point Gauss
quadrature per boundary edge with the P2 velocity gradient evaluated from
the adjacent element.
"""

from dataclasses import dataclass

import numpy as np

from .fem import _p2_ref_grads, boundary_edge_table
from .numerics import uniform_step


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
    nu dt sum_n ||grad(w^n - u^n)||^2, ``c_u`` the max FOM gradient norm,
    and ``div_series`` the FOM divergence-error series feeding the
    inconsistency terms.
    """

    linf_l2: float
    l2_h1: float
    c_u: float
    div_series: ScalarSeries


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


_EDGE_T = 0.5 + 0.5 * np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_EDGE_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _edge_quadrature_data(space, label):
    """Per-edge geometry and basis tables for boundary line integrals (cached)."""
    key = ("edge_data", label)
    if key in space._cache:
        return space._cache[key]
    idx = space.mesh.boundary_edges_with_label(label)
    if idx.size == 0:
        raise ValueError(f"mesh has no boundary edges labeled {label!r}")
    table = boundary_edge_table(space, idx, _EDGE_T)
    # the drag normal points into the fluid
    normals = -table.normals
    ref = _p2_ref_grads(table.bary.reshape(-1, 3)).reshape(idx.size, _EDGE_T.size, 6, 2)
    data = {
        "cells": table.cells,
        "lengths": table.lengths,
        "normals": normals,
        "tangents": np.column_stack([normals[:, 1], -normals[:, 0]]),
        "bary": table.bary,
        "dphi": np.einsum("edk,eqlk->eqld", space.inv_jt[table.cells], ref),
    }
    space._cache[key] = data
    return data


def drag_coefficient(space, u, p, label="cylinder", nu=1.0):
    """Drag coefficient of the flow on the boundary edges labeled ``label``."""
    u = space._check_velocity(u)
    data = _edge_quadrature_data(space, label)
    cells = data["cells"]
    coeffs = u.reshape(space.n_scalar, 2)[space.cell_scalar[cells]]   # (ne, 6, 2)
    grads = np.einsum("eli,eqld->eqid", coeffs, data["dphi"])          # (ne, 3, 2, 2)
    pvals = np.einsum("el,eql->eq", np.asarray(p, dtype=float)[space.cell_press[cells]], data["bary"])

    n = data["normals"]
    t = data["tangents"]
    dudn_t = np.einsum("ei,eqij,ej->eq", t, grads, n)
    density = nu * dudn_t * n[:, None, 1] - pvals * n[:, None, 0]
    integral = np.einsum("e,q,eq->", data["lengths"], _EDGE_W, density)
    return 20.0 * float(integral)


def _snapshot_norms(space, snapshots):
    """Gradient and divergence norms of every snapshot."""
    u = snapshots.matrix
    norm = lambda op: np.sqrt(np.clip(np.einsum("ij,ij->j", u, op @ u), 0.0, None))
    return norm(space.stiffness()), norm(space.div_form())


def _grid_step(times, trajectory_times):
    """``numerics.uniform_step(times)``, once the trajectory's times equal ``times`` from their start."""
    dt = uniform_step(times)
    if times.size != trajectory_times.size or not np.allclose(
            times - times[0], trajectory_times - trajectory_times[0], rtol=0.0, atol=1e-10):
        raise ValueError("snapshot and trajectory time grids do not match")
    return dt


def trajectory_error(space, snapshots, trajectory, basis, nu):
    """Theorem-style error functionals of a ROM trajectory vs FOM snapshots.

    The time grids must match exactly and be uniform.  The max-norm error
    covers every recorded time; the viscous-weighted gradient sum and
    ``c_u`` run over n >= 1 as in the discrete error bound.  This is the
    full-field reference of :func:`reduced_trajectory_error`.
    """
    times = snapshots.times
    dt = _grid_step(times, trajectory.times)

    recon = basis.fields(trajectory.coeffs.shape[1]) @ basis.extend(trajectory.coeffs).T
    err = recon - snapshots.matrix

    err_l2 = np.sqrt(np.clip(np.einsum("ij,ij->j", err, space.mass() @ err), 0.0, None))
    err_h1sq = np.clip(np.einsum("ij,ij->j", err, space.stiffness() @ err), 0.0, None)
    u_h1, u_div = _snapshot_norms(space, snapshots)

    return TrajectoryError(
        linf_l2=float(err_l2.max()),
        l2_h1=float(nu * dt * err_h1sq[1:].sum()),
        c_u=float(u_h1[1:].max()),
        div_series=ScalarSeries(times=times, values=u_div),
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
    relative to the snapshots' norms; ``c_u`` and the divergence series are
    the stored snapshot norms themselves.
    """
    times = coordinates.times
    dt = _grid_step(times, trajectory.times)
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
        div_series=ScalarSeries(times=times, values=coordinates.div_norms.copy()),
    )
