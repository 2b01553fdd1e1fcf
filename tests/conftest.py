import os
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from flowrom.fem import (
    TaylorHoodSpace,
    _density,
    _transport,
    constraint_mask,
    nonlinear_residual,
    saddle_block,
)
from flowrom.fom import _staged_residual
from flowrom.mesh import identify_periodic, load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import PIVOT_THRESHOLD, implicit_step
from flowrom.rom import project_fields


def pytest_collection_modifyitems(config, items):
    if os.environ.get("FLOWROM_EXTENDED"):
        return
    skip = pytest.mark.skip(reason="extended suite disabled (set FLOWROM_EXTENDED=1)")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def square8():
    mesh = uniform_rect_mesh(8, 8)
    return mesh, TaylorHoodSpace(mesh)


@pytest.fixture(scope="session")
def kh16_saddle():
    """16x16 shear-layer space with its Newton (skew, BE, dt 0.02) and balanced Stokes-projection matrices."""
    from flowrom.fem import apply_constraints, constrain_rows, constraint_mask, nonlinear_jacobian
    from flowrom.fom import build_initial_condition, kelvin_helmholtz_boundary, kelvin_helmholtz_velocity

    mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
    space = TaylorHoodSpace(mesh)
    boundary = kelvin_helmholtz_boundary()
    n = space.n_vel + space.n_press
    div = space.divergence()
    u = build_initial_condition(kelvin_helmholtz_velocity, space)
    block = space.mass() / 0.02 + space.stiffness() / 2800 + nonlinear_jacobian(space, "skew", u)
    mask, _ = constraint_mask(space, boundary)
    newton = constrain_rows(sp.bmat([[block, -div.T], [div, None]], format="csr"), mask)
    balance = np.abs(div.data).max() / space.mass().diagonal().max()
    stokes, _ = apply_constraints(space, sp.bmat([[balance * space.mass(), -div.T], [div, None]], format="csr"),
                                  np.zeros(n), boundary)
    return space, newton, stokes


@pytest.fixture(scope="session")
def three_spaces():
    """Periodic-x shear layer, doubly periodic Taylor-Green and the cylinder."""
    kh = identify_periodic(uniform_rect_mesh(16, 16), "x")
    tg = identify_periodic(identify_periodic(uniform_rect_mesh(12, 12, 2.0, 2.0), "x"), "y")
    return {name: TaylorHoodSpace(mesh)
            for name, mesh in (("kh", kh), ("tg", tg), ("cylinder", load_bundled_mesh()))}


@pytest.fixture(scope="session")
def kh_run():
    """Short shear-layer run shared by the POD/ROM/diagnostics tests."""
    from flowrom.fom import (FomConfig, build_initial_condition, kelvin_helmholtz_boundary,
                             kelvin_helmholtz_velocity, run_fom)

    mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
    space = TaylorHoodSpace(mesh)
    u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
    cfg = FomConfig(nu=1 / 2800, dt=0.02, t_end=0.5, form="skew", scheme="backward_euler",
                    boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 0.5),
                    project_initial=True)
    _, snaps, series = run_fom(cfg, mesh, space, u0)
    return mesh, space, snaps, series, cfg


@pytest.fixture(scope="session")
def kh_basis_session(kh_run):
    from flowrom.pod import build_pod_basis

    _, space, snaps, _, _ = kh_run
    return build_pod_basis(snaps, space, centering="none")


@pytest.fixture(scope="session")
def homogeneous_field_pairs(square8):
    """Seeded random velocity pairs vanishing on the whole boundary."""
    _, space = square8
    labels = ["left", "right", "top", "bottom"]
    mask, _ = space.dirichlet_data({lab: (0.0, 0.0) for lab in labels})
    rng = np.random.default_rng(2024)
    pairs = []
    for _ in range(20):
        u = rng.standard_normal(space.n_vel)
        v = rng.standard_normal(space.n_vel)
        u[mask] = 0.0
        v[mask] = 0.0
        pairs.append((u, v))
    return pairs


@dataclass(frozen=True)
class FieldNorms:
    l2: float
    h1_semi: float
    div_l2: float
    curl_l2: float


def field_norms(space, u):
    """L2, H1-seminorm, divergence and curl norms of a velocity field."""
    u = space._check_velocity(u)
    l2sq = u @ (space.mass() @ u)
    h1sq = u @ (space.stiffness() @ u)
    divsq = u @ (space.div_form() @ u)
    curlsq = u @ (space.curl_form() @ u)
    clip = lambda v: float(np.sqrt(max(v, 0.0)))
    return FieldNorms(clip(l2sq), clip(h1sq), clip(divsq), clip(curlsq))


def signed_areas(mesh):
    """Signed area of each triangle of ``mesh`` (positive for CCW orientation)."""
    d1, d2 = (mesh.vertices[mesh.triangles[:, k]] - mesh.vertices[mesh.triangles[:, 0]] for k in (1, 2))
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def with_projection(space, basis, r):
    """``basis`` carrying the projection of its leading r modes, as ``flowrom pod`` stores it."""
    return replace(basis, projection=project_fields(space, basis.fields(r)))


def rom_quadratic(ops, c):
    """N(c)_i = sum_jk T[i, j, k] c_j c_k of the ``rom.RomOperators`` ``ops``."""
    return 0.5 * (ops.quadratic_jacobian(c) @ c)


def scheme_residual(space, config, u, p, u_old, u_prev):
    """Momentum + continuity residual of the implicit scheme at ``(u, p)``.

    ``u_prev`` is None on the first step.  Constrained velocity rows and the
    pinned pressure row are zeroed, so the norm of the returned vector is the
    quantity Newton drives below tolerance.  The same staged evaluation as
    ``fom.advance_step``.
    """
    alpha, hist, _, weight = implicit_step(config.scheme, u_old, u_prev)
    block = saddle_block(space, alpha / config.dt, config.nu)
    load = space.mass() @ hist / config.dt - weight * (
        config.nu * (space.stiffness() @ u_old) + nonlinear_residual(space, config.form, u_old))
    x = np.concatenate([u, p])
    mask, _ = constraint_mask(space, config.boundary)
    return _staged_residual(space, config.form, block, x, load, mask)


def twelve_direction_jacobian(space, form, u):
    """Reference nonlinear Jacobian from zero-padded tables of all 12 local directions.

    Direction 2l + c is basis function l in velocity component c; its tables
    hold the other component as explicit zeros, so every density product is
    formed, zero or not.  The element matrices are summed by a COO scatter.
    Neither the direction handling nor the assembly is that of
    ``fem.nonlinear_jacobian``, which must match it to roundoff.
    """
    uvals, ugrads = space.values_and_grads(u)
    nt, nq = space.wdet.shape
    dvals = np.zeros((2, 12, 1, nq))
    dgrads = np.zeros((2, 2, 12, nt, nq))
    for l in range(6):
        for c in range(2):
            dvals[c, 2 * l + c, 0] = space.phi[:, l]
            dgrads[c, :, 2 * l + c] = space.tables[:, l, 1:].transpose(1, 0, 2)
    s = _density(_transport(form, dvals, dgrads), uvals, ugrads)
    s += _density(_transport(form, uvals, ugrads), dvals, dgrads)
    local = ((s * space.wdet) @ space.phi).transpose(2, 3, 0, 1).reshape(nt, 12, 12)
    dofs = (2 * space.cell_scalar[:, :, None] + np.arange(2)).reshape(nt, 12)
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(space.n_vel,) * 2).tocsr()


class Float64Factor:
    """Reference for ``numerics.factorize`` with double-precision factors.

    The same column order and diagonal-preferring pivoting as the package's
    float32 factor, on the unconverted float64 matrix; ``Float64Factor(m,
    order)`` takes ``factorize``'s arguments, and ``solve`` and ``nnz``
    behave as ``numerics.Factor``'s.
    """

    def __init__(self, m, order):
        m = sp.csr_matrix(m)
        self._order = np.asarray(order)
        self._lu = spla.splu(sp.csc_matrix(m[self._order][:, self._order]), permc_spec="NATURAL",
                             diag_pivot_thresh=PIVOT_THRESHOLD, options={"SymmetricMode": True})
        self.nnz = self._lu.nnz

    def solve(self, rhs):
        x = np.empty(len(rhs))
        x[self._order] = self._lu.solve(np.asarray(rhs, dtype=float)[self._order])
        return x


def diagonal_product_constraint(matrix, mask):
    """Reference row constraint: ``diag(~mask) @ matrix + diag(mask)``, two sparse products and a sum."""
    keep = sp.diags((~mask).astype(float), format="csr")
    return keep @ matrix + sp.diags(mask.astype(float), format="csr")


def oracle_quadrature():
    """Degree-6 12-point rule, independent of the package's degree-5 rule."""
    a1, a2 = 0.063089014491502, 0.249286745170910
    b1, b2 = 0.310352451033785, 0.053145049844816
    w1, w2, w3 = 0.025422453185103, 0.058393137863189, 0.041425537809187
    pts = []
    wts = []
    for a, w in ((a1, w1), (a2, w2)):
        pts += [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
        wts += [w, w, w]
    for (b, c) in ((b1, b2),):
        for perm in ((b, c, 1 - b - c), (c, b, 1 - b - c), (b, 1 - b - c, c),
                     (c, 1 - b - c, b), (1 - b - c, b, c), (1 - b - c, c, b)):
            pts.append(perm)
            wts.append(w3)
    return np.array(pts), np.array(wts)
