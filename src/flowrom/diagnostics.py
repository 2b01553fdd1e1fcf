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

from .fem import _p2_basis, _p2_ref_grads


@dataclass
class ScalarSeries:
    """A labeled time series with strictly increasing times."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

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


def rom_energy_enstrophy(space, basis, coeffs):
    """Energy and enstrophy series of the reduced states ubar + sum_j a^n_j psi_j.

    ``coeffs`` holds one state per row.  The fields are never rebuilt: with
    X = [ubar, psi_1..psi_r] (ubar dropped for an uncentered basis) and
    c^n = [1, a^n] (``PodBasis.fields``/``extend``), the values are
    1/2 c^T (X^T M X) c and 1/2 c^T (X^T C X) c for the mass and curl forms
    M and C.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    x = basis.fields(coeffs.shape[1])
    c = basis.extend(coeffs)
    out = []
    for op in (space.mass(), space.curl_form()):
        gram = x.T @ (op @ x)
        out.append(0.5 * np.einsum("ni,ni->n", c @ gram, c))
    return out[0], out[1]


_EDGE_T = 0.5 + 0.5 * np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_EDGE_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _edge_quadrature_data(space, label):
    """Per-edge geometry and basis tables for boundary line integrals (cached)."""
    key = ("edge_data", label)
    if key in space._cache:
        return space._cache[key]
    mesh = space.mesh
    idx = mesh.boundary_edges_with_label(label)
    if idx.size == 0:
        raise ValueError(f"mesh has no boundary edges labeled {label!r}")
    edges = mesh.boundary_edges[idx]

    directed = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed[(int(a), int(b))] = t
    cells = np.array([directed[(int(a), int(b))] for a, b in edges], dtype=int)

    pa = mesh.vertices[edges[:, 0]]
    pb = mesh.vertices[edges[:, 1]]
    d = pb - pa
    lengths = np.linalg.norm(d, axis=1)
    # boundary edges keep the domain on their left, so (dy, -dx) points out
    # of the fluid; the drag normal is its negation (into the fluid)
    n_out = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    normals = -n_out
    tangents = np.column_stack([normals[:, 1], -normals[:, 0]])

    pts = pa[:, None, :] + _EDGE_T[None, :, None] * d[:, None, :]   # (ne, 3, 2)
    v0 = mesh.vertices[mesh.triangles[cells, 0]]
    rel = pts - v0[:, None, :]
    # xi = J^{-1} (x - v0); inv_jt stores J^{-T}
    xi = np.einsum("ekd,eqk->eqd", space.inv_jt[cells], rel)
    bary = np.concatenate([1.0 - xi.sum(axis=-1, keepdims=True), xi], axis=-1)

    flat = bary.reshape(-1, 3)
    phi = _p2_basis(flat).reshape(len(cells), 3, 6)
    ref = _p2_ref_grads(flat).reshape(len(cells), 3, 6, 2)
    dphi = np.einsum("edk,eqlk->eqld", space.inv_jt[cells], ref)

    data = {
        "cells": cells,
        "lengths": lengths,
        "normals": normals,
        "tangents": tangents,
        "bary": bary,
        "phi": phi,
        "dphi": dphi,
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


def trajectory_error(space, snapshots, trajectory, basis, nu):
    """Theorem-style error functionals of a ROM trajectory vs FOM snapshots.

    The time grids must match exactly.  The max-norm error covers every
    recorded time; the viscous-weighted gradient sum and ``c_u`` run over
    n >= 1 as in the discrete error bound.
    """
    times = snapshots.times
    if times.size != trajectory.times.size or not np.allclose(
        times - times[0], trajectory.times - trajectory.times[0], rtol=0.0, atol=1e-10
    ):
        raise ValueError("snapshot and trajectory time grids do not match")
    if times.size < 2:
        raise ValueError("need at least two states to form trajectory errors")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("trajectory errors assume a uniform time grid")
    dt = float(steps[0])

    recon = basis.fields(trajectory.coeffs.shape[1]) @ basis.extend(trajectory.coeffs).T
    err = recon - snapshots.matrix

    mass = space.mass()
    stiff = space.stiffness()
    divf = space.div_form()
    err_l2 = np.sqrt(np.clip(np.einsum("ij,ij->j", err, mass @ err), 0.0, None))
    err_h1sq = np.clip(np.einsum("ij,ij->j", err, stiff @ err), 0.0, None)
    u_h1 = np.sqrt(np.clip(np.einsum("ij,ij->j", snapshots.matrix, stiff @ snapshots.matrix), 0.0, None))
    u_div = np.sqrt(np.clip(np.einsum("ij,ij->j", snapshots.matrix, divf @ snapshots.matrix), 0.0, None))

    return TrajectoryError(
        linf_l2=float(err_l2.max()),
        l2_h1=float(nu * dt * err_h1sq[1:].sum()),
        c_u=float(u_h1[1:].max()),
        div_series=ScalarSeries(times=times, values=u_div, label="div_error"),
    )
