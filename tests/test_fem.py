import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

import flowrom
from flowrom.fem import (
    EDGE_POINTS,
    NonlinearForm,
    TaylorHoodSpace,
    _p2_ref_grads,
    apply_constraints,
    assemble_linear_operators,
    cached,
    constrain_rows,
    constraint_mask,
    nonlinear_jacobian,
    nonlinear_residual,
    saddle_block,
    trilinear_value,
)
from flowrom.fom import (_newton_matrix, build_initial_condition, cylinder_boundary, kelvin_helmholtz_boundary,
                         kelvin_helmholtz_velocity, taylor_green_velocity)
from flowrom.mesh import load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import factorize, solve_sparse

from conftest import (
    diagonal_product_constraint,
    field_norms,
    oracle_quadrature,
    signed_areas,
    twelve_direction_jacobian,
)

ALL_FORMS = list(NonlinearForm)


# ----------------------------------------------------------------------
# independent evaluation path for the trilinear oracles: its own quadrature
# rule (degree 6), its own basis formulas, gradients straight from vertex
# coordinates instead of the assembled Jacobian tables

def oracle_eval(mesh, space, u, bary):
    """Values/gradients of a velocity field at barycentric points, from scratch."""
    lam = np.asarray(bary)
    phi = np.column_stack([
        lam[:, 0] * (2 * lam[:, 0] - 1),
        lam[:, 1] * (2 * lam[:, 1] - 1),
        lam[:, 2] * (2 * lam[:, 2] - 1),
        4 * lam[:, 1] * lam[:, 2],
        4 * lam[:, 2] * lam[:, 0],
        4 * lam[:, 0] * lam[:, 1],
    ])
    p = mesh.vertices
    t = mesh.triangles
    areas = signed_areas(mesh)
    # grad lambda_i = perp(p_j - p_k) / (2A), (i, j, k) cyclic
    glam = np.empty((len(t), 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = p[t[:, j]] - p[t[:, k]]
        glam[:, i, 0] = d[:, 1]
        glam[:, i, 1] = -d[:, 0]
    glam /= (2 * areas)[:, None, None]

    coeffs = u.reshape(-1, 2)[space.cell_scalar]  # (nt, 6, 2)
    vals = np.einsum("eli,ql->eqi", coeffs, phi)

    nq = lam.shape[0]
    gphi = np.empty((len(t), nq, 6, 2))
    for q in range(nq):
        l0, l1, l2 = lam[q]
        gphi[:, q, 0] = (4 * l0 - 1) * glam[:, 0]
        gphi[:, q, 1] = (4 * l1 - 1) * glam[:, 1]
        gphi[:, q, 2] = (4 * l2 - 1) * glam[:, 2]
        gphi[:, q, 3] = 4 * (l1 * glam[:, 2] + l2 * glam[:, 1])
        gphi[:, q, 4] = 4 * (l2 * glam[:, 0] + l0 * glam[:, 2])
        gphi[:, q, 5] = 4 * (l0 * glam[:, 1] + l1 * glam[:, 0])
    grads = np.einsum("eli,eqld->eqid", coeffs, gphi)
    return vals, grads


def oracle_integral(mesh, density_at):
    """Integrate a per-(element, point) scalar with the degree-6 oracle rule."""
    bary, w = oracle_quadrature()
    areas = signed_areas(mesh)
    vals = density_at(bary)
    return float(np.einsum("q,e,eq->", w, 2 * areas, vals))


def loop_p2_ref_grads(bary):
    """P2 reference gradients, one point and one basis function at a time."""
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    out = np.zeros((bary.shape[0], 6, 2))
    for q, l in enumerate(bary):
        for i in range(3):
            out[q, i] = (4 * l[i] - 1) * gl[i]
        out[q, 3] = 4 * (l[1] * gl[2] + l[2] * gl[1])
        out[q, 4] = 4 * (l[2] * gl[0] + l[0] * gl[2])
        out[q, 5] = 4 * (l[0] * gl[1] + l[1] * gl[0])
    return out


def test_p2_ref_grads_match_loop_reference():
    bary = np.random.default_rng(8).random((200, 3))
    bary /= bary.sum(axis=1, keepdims=True)
    assert np.array_equal(_p2_ref_grads(bary), loop_p2_ref_grads(bary))


class TestFieldEvaluation:
    @pytest.mark.parametrize("stack", [None, 40])
    def test_tables_match_einsum_bit_for_bit(self, square8, stack):
        # reference: the tables contracted by one einsum over the local basis
        _, space = square8
        rng = np.random.default_rng(5)
        u = rng.standard_normal((space.n_vel,) if stack is None else (stack, space.n_vel))
        coeffs = u.reshape(u.shape[:-1] + (space.n_scalar, 2))[..., space.cell_scalar, :]
        ref = np.einsum("...eli,elkq->ik...eq", coeffs, space.tables, optimize=["einsum_path", (0, 1)])
        vals, grads = space.values_and_grads(u)
        assert np.array_equal(vals, ref[:, 0])
        assert np.array_equal(grads, ref[:, 1:])


@pytest.fixture(scope="module")
def edge_spaces():
    """(space, cross) by name: the cylinder, and the x-periodic 16x16 shear-layer space.

    ``cross`` is the xy coefficient of :func:`quadratic_field` the space
    represents exactly: none on the x-periodic square, whose nodes at x = 0
    and x = 1 share their values.
    """
    kh = TaylorHoodSpace(flowrom.identify_periodic(uniform_rect_mesh(16, 16), "x"))
    return {"cylinder": (TaylorHoodSpace(load_bundled_mesh("cylinder")), 0.8), "kh16": (kh, 0.0)}


def quadratic_field(x, y, cross):
    """Values (2, ...) and gradients (2, 2, ...) of a quadratic field, equal at x = 0 and x = 1 for cross = 0."""
    s, ds = x * (x - 1.0), 2.0 * x - 1.0
    vals = np.stack([s + 2.0 * y**2 - 0.3 * y + cross * x * y + 0.7,
                     -0.5 * s + 1.5 * y**2 + 0.4 * y - cross * x * y - 1.1])
    grads = np.stack([np.stack([ds + cross * y, 4.0 * y - 0.3 + cross * x]),
                      np.stack([-0.5 * ds - cross * y, 3.0 * y + 0.4 - cross * x])])
    return vals, grads


class TestEdgeTable:
    @pytest.mark.parametrize("case, label", [("cylinder", None), ("cylinder", "cylinder"), ("cylinder", "wall"),
                                             ("kh16", None), ("kh16", "top"), ("kh16", "left")])
    def test_evaluates_exact_quadratic_at_edge_points(self, edge_spaces, case, label):
        space, cross = edge_spaces[case]
        mesh = space.mesh
        idx = np.arange(mesh.boundary_edges.shape[0]) if label is None else mesh.boundary_edges_with_label(label)
        pa = mesh.vertices[mesh.boundary_edges[idx, 0]]
        d = mesh.vertices[mesh.boundary_edges[idx, 1]] - pa
        pts = pa[:, None, :] + EDGE_POINTS[:, None] * d[:, None, :]   # (ne, nq, 2)
        want_vals, want_grads = quadratic_field(pts[..., 0], pts[..., 1], cross)

        u = space.interpolate_velocity(lambda x, y, t: quadratic_field(x, y, cross)[0])
        vals, grads = space.values_and_grads(u, at=space.edge_table())
        vals, grads = vals[:, idx], grads[:, :, idx]
        assert vals.shape == want_vals.shape and grads.shape == want_grads.shape
        assert np.abs(vals - want_vals).max() <= 1e-13 * np.abs(want_vals).max()
        assert np.abs(grads - want_grads).max() <= 1e-12 * np.abs(want_grads).max()

    @pytest.mark.parametrize("case", ["cylinder", "kh16"])
    def test_every_edge_in_mesh_order(self, edge_spaces, case):
        space, _ = edge_spaces[case]
        mesh = space.mesh
        table = space.edge_table()
        assert space.edge_table() is table
        assert np.array_equal(table.cells, mesh.boundary_cells)
        d = mesh.vertices[mesh.boundary_edges[:, 1]] - mesh.vertices[mesh.boundary_edges[:, 0]]
        assert np.allclose(table.weights.sum(axis=1), np.hypot(d[:, 0], d[:, 1]), rtol=1e-15, atol=0.0)


class TestLinearOperators:
    def test_stiffness_of_constant_vanishes(self, square8):
        mesh, space = square8
        _, K, _ = assemble_linear_operators(mesh, space, 1.0)
        u = space.interpolate_velocity(lambda x, y, t: (np.ones_like(x), np.zeros_like(x)))
        assert np.abs(K @ u).max() < 1e-13

    def test_divergence_of_linear_solenoidal_field(self, square8):
        mesh, space = square8
        _, _, B = assemble_linear_operators(mesh, space, 1.0)
        u = space.interpolate_velocity(lambda x, y, t: (x, -y))
        assert np.abs(B @ u).max() < 1e-12

    def test_mass_row_sums(self, square8):
        mesh, space = square8
        M, _, _ = assemble_linear_operators(mesh, space, 1.0)
        assert M.sum() == pytest.approx(2.0, abs=1e-12)  # each component integrates 1

    def test_symmetry_structural(self, square8):
        mesh, space = square8
        M, K, _ = assemble_linear_operators(mesh, space, 0.37)
        assert abs(M - M.T).max() == 0.0
        assert abs(K - K.T).max() == 0.0

    def test_viscosity_scaling(self, square8):
        mesh, space = square8
        _, K1, _ = assemble_linear_operators(mesh, space, 1.0)
        _, K2, _ = assemble_linear_operators(mesh, space, 2.5)
        assert abs(K2 - 2.5 * K1).max() < 1e-14


class TestFieldNorms:
    def test_zero(self, square8):
        _, space = square8
        n = field_norms(space, np.zeros(space.n_vel))
        assert (n.l2, n.h1_semi, n.div_l2, n.curl_l2) == (0, 0, 0, 0)

    def test_constant(self, square8):
        _, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (np.ones_like(x), np.zeros_like(x)))
        n = field_norms(space, u)
        assert n.l2 == pytest.approx(1.0, abs=1e-13)
        # the quadratic form sits at machine epsilon; its root at ~1e-8
        assert n.h1_semi < 1e-7

    def test_shear(self, square8):
        _, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (y, np.zeros_like(y)))
        n = field_norms(space, u)
        assert n.l2**2 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert n.h1_semi**2 == pytest.approx(1.0, rel=1e-12)
        assert n.curl_l2**2 == pytest.approx(1.0, rel=1e-12)
        assert n.div_l2 == pytest.approx(0.0, abs=1e-12)


class TestTrilinearForms:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_constants_give_zero(self, square8, form):
        _, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (np.full_like(x, 1.3), np.full_like(x, -0.4)))
        v = space.interpolate_velocity(lambda x, y, t: (np.full_like(x, 0.2), np.full_like(x, 2.0)))
        assert trilinear_value(space, form, u, u, v) == pytest.approx(0.0, abs=1e-14)
        assert trilinear_value(space, form, u, v, v) == pytest.approx(0.0, abs=1e-14)

    def test_energy_identities(self, square8, homogeneous_field_pairs):
        _, space = square8
        for u, v in homogeneous_field_pairs[:5]:
            nu_ = field_norms(space, u)
            nv_ = field_norms(space, v)
            hu = np.hypot(nu_.l2, nu_.h1_semi)
            hv = np.hypot(nv_.l2, nv_.h1_semi)
            assert abs(trilinear_value(space, "skew", u, v, v)) <= 1e-11 * hu * hv * hv
            assert abs(trilinear_value(space, "emac", u, u, u)) <= 1e-11 * hu**3
            assert abs(trilinear_value(space, "rotational", u, v, v)) <= 1e-11 * hu * hv * hv

    def test_skew_convective_relation_against_oracle(self, square8, homogeneous_field_pairs):
        mesh, space = square8
        u, v = homogeneous_field_pairs[0]
        bs = trilinear_value(space, "skew", u, u, v)
        bc = trilinear_value(space, "convective", u, u, v)

        def density(bary):
            uvals, ugrads = oracle_eval(mesh, space, u, bary)
            vvals, _ = oracle_eval(mesh, space, v, bary)
            udiv = ugrads[..., 0, 0] + ugrads[..., 1, 1]
            return 0.5 * udiv * np.einsum("eqi,eqi->eq", uvals, vvals)

        rhs = oracle_integral(mesh, density)
        assert bs - bc == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_emac_convective_relation_against_oracle(self, square8, homogeneous_field_pairs):
        mesh, space = square8
        u, v = homogeneous_field_pairs[1]
        be = trilinear_value(space, "emac", u, u, v)
        bc = trilinear_value(space, "convective", u, u, v)

        def density(bary):
            uvals, ugrads = oracle_eval(mesh, space, u, bary)
            vvals, _ = oracle_eval(mesh, space, v, bary)
            udiv = ugrads[..., 0, 0] + ugrads[..., 1, 1]
            v_grad_u_u = np.einsum("eqj,eqij,eqi->eq", vvals, ugrads, uvals)
            divu_u_v = udiv * np.einsum("eqi,eqi->eq", uvals, vvals)
            return v_grad_u_u + divu_u_v

        rhs = oracle_integral(mesh, density)
        assert be - bc == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_forms_differ_by_potential_for_solenoidal_linear_field(self, square8):
        # u = (y, x) is pointwise divergence-free; the forms then differ only
        # by the potential integral of grad(|u|^2 / 2) = (x, y)
        mesh, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (y, x))
        rng = np.random.default_rng(5)
        v = rng.standard_normal(space.n_vel)
        bc = trilinear_value(space, "convective", u, u, v)
        bs = trilinear_value(space, "skew", u, u, v)
        br = trilinear_value(space, "rotational", u, u, v)
        be = trilinear_value(space, "emac", u, u, v)

        def potential(bary):
            vvals, _ = oracle_eval(mesh, space, v, bary)
            areas = signed_areas(mesh)
            x = np.einsum("el,ql->eq", mesh.vertices[mesh.triangles][:, :, 0], np.asarray(bary))
            y = np.einsum("el,ql->eq", mesh.vertices[mesh.triangles][:, :, 1], np.asarray(bary))
            return vvals[..., 0] * x + vvals[..., 1] * y

        pot = oracle_integral(mesh, potential)
        scale = abs(bc) + abs(pot) + 1e-14
        assert abs(bs - bc) <= 1e-11 * scale
        assert abs((bc - br) - pot) <= 1e-11 * scale
        assert abs((be - bc) - pot) <= 1e-11 * scale

    def test_mismatched_field_length(self, square8):
        _, space = square8
        with pytest.raises(ValueError):
            trilinear_value(space, "skew", np.zeros(3), np.zeros(space.n_vel), np.zeros(space.n_vel))


class TestResidualAndJacobian:
    def test_residual_at_zero(self, square8):
        _, space = square8
        for form in ALL_FORMS:
            r = nonlinear_residual(space, form, np.zeros(space.n_vel))
            assert np.all(r == 0.0)

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_residual_matches_trilinear_definition(self, square8, form):
        _, space = square8
        rng = np.random.default_rng(17)
        u = rng.standard_normal(space.n_vel)
        r = nonlinear_residual(space, form, u)
        for i in rng.choice(space.n_vel, size=5, replace=False):
            e = np.zeros(space.n_vel)
            e[i] = 1.0
            assert r[i] == pytest.approx(trilinear_value(space, form, u, u, e), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("case", ["square8", "kh16"])
    def test_jacobian_matches_twelve_direction_oracle(self, request, case, form):
        # the oracle forms every density product of all 12 zero-padded
        # directions and sums through a COO scatter
        if case == "square8":
            _, space = request.getfixturevalue("square8")
            u = np.random.default_rng(41).standard_normal(space.n_vel)
        else:
            space = request.getfixturevalue("three_spaces")["kh"]
            u = flowrom.build_initial_condition(kelvin_helmholtz_velocity, space)
        got = nonlinear_jacobian(space, form, u)
        want = twelve_direction_jacobian(space, form, u)
        assert got.shape == want.shape
        assert abs(got - want).max() <= 1e-15 * abs(want).max()

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_jacobian_matches_central_differences(self, square8, form):
        _, space = square8
        rng = np.random.default_rng(23)
        u = rng.standard_normal(space.n_vel)
        d = rng.standard_normal(space.n_vel)
        jac = nonlinear_jacobian(space, form, u)
        jd = jac @ d
        scale = np.linalg.norm(jd)
        for h in (1e-3, 1e-4):
            fd = (nonlinear_residual(space, form, u + h * d)
                  - nonlinear_residual(space, form, u - h * d)) / (2 * h)
            # the residual is quadratic in u, so the h^2 truncation term is
            # identically zero and the mismatch sits at the roundoff floor
            err = np.linalg.norm(jd - fd)
            assert err <= 1e-9 * scale
            assert err <= 1.0 * h**2 * scale

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_forward_difference_is_exactly_first_order(self, square8, form):
        # E(h) = || (R(u + h d) - R(u))/h - J d || = h ||Q(d, d)|| for a
        # quadratic residual: halving h halves the error exactly, which pins
        # the Jacobian as the exact derivative
        _, space = square8
        rng = np.random.default_rng(29)
        u = rng.standard_normal(space.n_vel)
        d = rng.standard_normal(space.n_vel)
        jd = nonlinear_jacobian(space, form, u) @ d
        r0 = nonlinear_residual(space, form, u)

        def err(h):
            return np.linalg.norm((nonlinear_residual(space, form, u + h * d) - r0) / h - jd)

        ratio = err(1e-2) / err(5e-3)
        assert ratio == pytest.approx(2.0, rel=1e-2)


class TestConstraints:
    def test_constrain_rows_matches_diagonal_products(self):
        # explicit zeros, masked rows that hold only zeros and masked rows
        # that hold nothing at all
        rng = np.random.default_rng(31)
        bare = 0
        for _ in range(60):
            n = int(rng.integers(1, 12))
            m = sp.csr_matrix(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4))
            m.data[rng.random(m.nnz) < 0.25] = 0.0
            mask = rng.random(n) < 0.4
            bare += np.count_nonzero(mask & (np.diff(m.indptr) == 0))
            want = diagonal_product_constraint(m, mask)
            got = constrain_rows(m.copy(), mask)
            assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        assert bare > 0

    def test_noslip_zero_rhs_gives_zero(self, square8):
        mesh, space = square8
        M, K, B = assemble_linear_operators(mesh, space, 1.0)
        bc = {lab: ("noslip",) for lab in ("left", "right", "top", "bottom")}
        sys_mat = sp.bmat([[M + K, -B.T], [B, None]], format="csr")
        a, rhs = apply_constraints(space, sys_mat, np.zeros(sys_mat.shape[0]), bc)
        x = solve_sparse(a, rhs, space.saddle_order())
        assert np.abs(x).max() < 1e-14

    def test_inflow_profile_midpoint_value(self):
        mesh = load_bundled_mesh("cylinder")
        space = TaylorHoodSpace(mesh)
        mask, vals = space.dirichlet_data(cylinder_boundary())
        nodes = space.boundary_scalar_nodes("inflow")
        mid = nodes[np.argmin(np.abs(space.scalar_xy[nodes, 1] - 0.205))]
        assert space.scalar_xy[mid, 1] == pytest.approx(0.205, abs=1e-12)
        assert vals[2 * mid] == pytest.approx(1.5, rel=1e-12)
        assert vals[2 * mid + 1] == 0.0

    def test_free_slip_constrains_only_normal_component(self, square8):
        _, space = square8
        mask, _ = space.dirichlet_data({"top": ("component", 1, 0.0), "bottom": ("component", 1, 0.0)})
        top_bottom = np.concatenate([space.boundary_scalar_nodes("top"),
                                     space.boundary_scalar_nodes("bottom")])
        assert np.all(mask[2 * top_bottom + 1])
        assert not np.any(mask[2 * top_bottom])
        assert mask.sum() == top_bottom.size

    def test_unlabeled_boundary_errors(self, square8):
        _, space = square8
        with pytest.raises(ValueError, match="no boundary edges labeled"):
            space.dirichlet_data({"lid": ("noslip",)})

    def test_stokes_saddle_point_solve(self):
        mesh = uniform_rect_mesh(2, 2)
        space = TaylorHoodSpace(mesh)
        M, K, B = assemble_linear_operators(mesh, space, 1.0)
        n, m = space.n_vel, space.n_press
        sys_mat = sp.bmat([[K, -B.T], [B, None]], format="csr")
        rng = np.random.default_rng(4)
        rhs = np.concatenate([M @ rng.standard_normal(n), np.zeros(m)])
        bc = {lab: ("noslip",) for lab in ("left", "right", "top", "bottom")}
        a, b = apply_constraints(space, sys_mat, rhs, bc)
        x = solve_sparse(a, b, space.saddle_order())
        norm_a = np.sqrt((a.multiply(a)).sum())
        res = np.linalg.norm(a @ x - b)
        assert res <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
        # velocity part is discretely divergence-free
        assert np.abs((B @ x[:n])[1:]).max() < 1e-10


# ----------------------------------------------------------------------
# loop and COO references for the vectorized numbering and the node-graph
# assembly

def loop_numbering(mesh):
    """Edges, scalar/pressure indices and element nodes, built with dicts and loops."""
    nv = mesh.num_vertices
    sides = [[tuple(sorted((int(t[a]), int(t[b])))) for a, b in ((1, 2), (2, 0), (0, 1))]
             for t in mesh.triangles]
    edges = sorted({e for row in sides for e in row})
    edge_id = {e: i for i, e in enumerate(edges)}

    def root(x, parent):
        while parent[x] != x:
            x = parent[x]
        return x

    master = list(range(nv))
    for m, s in mesh.periodic_pairs:
        master[s] = int(m)
    vroot = [root(v, master) for v in range(nv)]
    first = {}
    eroot = [first.setdefault(tuple(sorted((vroot[a], vroot[b]))), i) for i, (a, b) in enumerate(edges)]
    scalar_root = vroot + [nv + e for e in eroot]
    scalar_id = {r: i for i, r in enumerate(sorted(set(scalar_root)))}
    press_id = {r: i for i, r in enumerate(sorted(set(vroot)))}
    scalar_index = [scalar_id[r] for r in scalar_root]
    cell_scalar = [[scalar_index[int(v)] for v in t] + [scalar_index[nv + edge_id[e]] for e in row]
                   for t, row in zip(mesh.triangles, sides)]
    return {
        "edges": np.array(edges, dtype=int),
        "scalar_index": np.array(scalar_index, dtype=int),
        "pressure_index": np.array([press_id[r] for r in vroot], dtype=int),
        "cell_scalar": np.array(cell_scalar, dtype=int),
    }


def coo_scatter(local, rows, cols, shape):
    rows = np.broadcast_to(rows[:, :, None], local.shape)
    cols = np.broadcast_to(cols[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def coo_operators(space):
    """Every operator by einsum kernels, a COO scatter and sparse symmetrization."""
    w, phi, cs = space.wdet, space.phi, space.cell_scalar
    g = np.ascontiguousarray(space.tables[:, :, 1:].transpose(0, 3, 1, 2))   # (e, q, l, d)
    cv = np.empty((cs.shape[0], 12), dtype=int)
    cv[:, 0::2], cv[:, 1::2] = 2 * cs, 2 * cs + 1

    def vector(elem):
        m = coo_scatter(elem, cs, cs, (space.n_scalar,) * 2)
        return sp.kron(0.5 * (m + m.T), sp.eye(2), format="csr")

    def paired(coef):
        elem = np.einsum("eq,eqla,eqmb->elamb", w, coef, coef).reshape(-1, 12, 12)
        m = coo_scatter(elem, cv, cv, (space.n_vel,) * 2)
        return 0.5 * (m + m.T)

    curl = np.stack([-g[..., 1], g[..., 0]], axis=-1)
    divergence = np.einsum("eq,qp,eqlc->eplc", w, space.quadrature.points, g).reshape(-1, 3, 12)
    return {
        "mass": vector(np.einsum("eq,qa,qb->eab", w, phi, phi)),
        "stiffness": vector(np.einsum("eq,eqad,eqbd->eab", w, g, g)),
        "divergence": coo_scatter(divergence, space.cell_press, cv, (space.n_press, space.n_vel)),
        "div_form": paired(g),
        "curl_form": paired(curl),
    }


def assert_canonical(m):
    """Sorted column indices within each row and no duplicate entries."""
    row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    assert np.all(np.diff(row.astype(np.int64) * m.shape[1] + m.indices) > 0)


class TestVectorizedNumbering:
    @pytest.mark.parametrize("name", ["kh", "tg", "cylinder"])
    def test_matches_loop_reference(self, three_spaces, name):
        space = three_spaces[name]
        for field, want in loop_numbering(space.mesh).items():
            got = getattr(space, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field

    @pytest.mark.parametrize("name", ["kh", "cylinder"])
    def test_boundary_nodes_match_loop_reference(self, three_spaces, name):
        space = three_spaces[name]
        edge_id = {tuple(e): i for i, e in enumerate(space.edges.tolist())}
        for label in set(space.mesh.boundary_labels):
            nodes = set()
            for a, b in space.mesh.boundary_edges[space.mesh.boundary_edges_with_label(label)]:
                mid = space.n_vertices + edge_id[(min(a, b), max(a, b))]
                nodes |= {int(space.scalar_index[v]) for v in (a, b, mid)}
            assert np.array_equal(space.boundary_scalar_nodes(label), sorted(nodes))


class TestNodeGraphAssembly:
    @pytest.mark.parametrize("name", ["kh", "tg", "cylinder"])
    def test_operators_match_coo_reference(self, three_spaces, name):
        space = three_spaces[name]
        reference = coo_operators(space)
        u = np.random.default_rng(12).standard_normal(space.n_vel)
        reference["jacobian"] = twelve_direction_jacobian(space, NonlinearForm.EMAC, u)
        for op, want in reference.items():
            got = nonlinear_jacobian(space, "emac", u) if op == "jacobian" else getattr(space, op)()
            assert got.shape == want.shape, op
            assert abs(got - want).max() <= 1e-14 * abs(want).max(), op
            assert_canonical(got)

    @pytest.mark.parametrize("name", ["kh", "tg", "cylinder"])
    def test_patterns(self, three_spaces, name):
        # A (x) I_2 on the node graph for mass and stiffness, full 2x2 node
        # blocks for the velocity forms; the divergence and the Jacobian keep
        # the COO pattern, explicit zeros included
        space = three_spaces[name]
        reference = coo_operators(space)
        u = np.zeros(space.n_vel)
        jac = nonlinear_jacobian(space, "skew", u)
        same = lambda a, b: np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert same(jac, twelve_direction_jacobian(space, "skew", u))
        assert same(space.divergence(), reference["divergence"])
        assert same(space.mass(), reference["mass"]) and same(space.stiffness(), space.mass())
        assert same(space.div_form(), jac) and same(space.curl_form(), jac)
        assert jac.nnz == 2 * space.mass().nnz
        # the matrices of one expansion share its read-only index arrays
        assert np.shares_memory(space.stiffness().indices, space.mass().indices)
        assert np.shares_memory(space.curl_form().indices, jac.indices)
        assert not jac.indices.flags.writeable


# every memo of fem.cached, as (method, arguments), and div_form and curl_form, which
# return _gradient_forms' matrices; _pattern is the node graph's
MEMOIZED = [(name, ()) for name in ("_graph", "mass", "stiffness", "divergence", "_gradient_forms", "div_form",
                                    "curl_form", "pressure_volume", "saddle_order", "edge_table", "qp_xy")]
MEMOIZED += [("boundary_scalar_nodes", ("top",)), ("_pattern", (1,)), ("_pattern", (2,))]


def memo_call(space, name, args):
    return getattr(space._graph() if name == "_pattern" else space, name)(*args)


class TestMemo:
    @pytest.fixture(scope="class")
    def mesh(self):
        return flowrom.identify_periodic(uniform_rect_mesh(4, 4), "x")

    @pytest.mark.parametrize("name,args", MEMOIZED, ids=[f"{name}{args or ''}" for name, args in MEMOIZED])
    def test_kept_per_space(self, mesh, name, args):
        space, other = TaylorHoodSpace(mesh), TaylorHoodSpace(mesh)
        first = memo_call(space, name, args)
        assert memo_call(space, name, args) is first
        assert memo_call(other, name, args) is not first

    def test_boundary_nodes_kept_per_label(self, mesh):
        space = TaylorHoodSpace(mesh)
        top, bottom = space.boundary_scalar_nodes("top"), space.boundary_scalar_nodes("bottom")
        assert np.intersect1d(top, bottom).size == 0
        assert space.boundary_scalar_nodes("top") is top and space.boundary_scalar_nodes("bottom") is bottom

    def test_missing_label_raises_on_every_call(self, mesh):
        space = TaylorHoodSpace(mesh)
        for _ in range(2):
            with pytest.raises(ValueError, match="no boundary edges labeled 'lid'"):
                space.boundary_scalar_nodes("lid")

    def test_a_raise_keeps_nothing(self):
        class Owner:
            def __init__(self):
                self._cache, self.calls = {}, []

            @cached
            def square(self, x):
                self.calls.append(x)
                if x < 0:
                    raise ValueError(x)
                return [x * x]

        owner = Owner()
        assert owner.square(3) is owner.square(3) and owner.square(2) == [4]
        for _ in range(2):
            with pytest.raises(ValueError):
                owner.square(-1)
        assert owner.calls == [3, 2, -1, -1]


class TestFootprint:
    """Traced memory of a 24x24 doubly periodic space (1,152 elements) and its operators.

    The node graph sums every matrix by one ``np.bincount`` per component
    pair over its slots, and the Jacobian sums each block as it forms it.
    A cached position of every element entry of a full block matrix took
    6.21 MiB of live space here, and a (nt, 12, 12) Jacobian element array
    took a 5.02 MiB transient.
    """

    @pytest.fixture(scope="class")
    def torus24(self):
        mesh = flowrom.identify_periodic(uniform_rect_mesh(24, 24, 2.0, 2.0), "x")
        mesh = flowrom.identify_periodic(mesh, "y")
        self.with_operators(uniform_rect_mesh(2, 2))   # first-call allocations happen before tracing
        return mesh

    @staticmethod
    def traced(build):
        """The memory that ``build()`` and its result leave traced, and its traced peak, in MiB."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = build()   # held while the memory is read
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return (live - base) / 2**20, (peak - base) / 2**20

    @staticmethod
    def with_operators(mesh):
        """A space with the six operators of a full-order set-up."""
        space = TaylorHoodSpace(mesh)
        for op in ("mass", "stiffness", "divergence", "div_form", "curl_form", "pressure_volume"):
            getattr(space, op)()
        return space

    def test_space_with_its_operators(self, torus24):
        # measured 4.94 MiB
        live, _ = self.traced(lambda: self.with_operators(torus24))
        assert live <= 5.2

    def test_skew_jacobian_transient(self, torus24):
        # measured 3.87 MiB above the space, the returned matrix included
        space = self.with_operators(torus24)
        u = np.random.default_rng(4).standard_normal(space.n_vel)
        _, peak = self.traced(lambda: nonlinear_jacobian(space, "skew", u))
        assert peak <= 4.1


@pytest.fixture(scope="module")
def benchmark_spaces():
    """The 32x32 shear layer, 48x48 Taylor-Green, the cylinder and a 5x3 rectangle."""
    kh = flowrom.identify_periodic(uniform_rect_mesh(32, 32), "x")
    tg = flowrom.identify_periodic(flowrom.identify_periodic(uniform_rect_mesh(48, 48, 2.0, 2.0), "x"), "y")
    return {name: TaylorHoodSpace(mesh) for name, mesh in (
        ("kh32", kh), ("tg48", tg), ("cylinder", load_bundled_mesh("cylinder")),
        ("rect5x3", uniform_rect_mesh(5, 3)))}


def twelve_wide_gram(space, coef):
    """The Gram of velocity coefficients (nt, 12, nq), local DOF 2l + c, as (nt, 12, 12) element
    matrices summed per (row, column) component pair over full 2x2 node blocks."""
    graph = space._graph()
    elem = space._gram(coef[:, :, None]).reshape(-1, 6, 2, 6, 2)
    return graph._velocity(lambda c, d: graph._sum(elem[:, :, c, :, d]), 2)


class TestCurlForm:
    @pytest.mark.parametrize("name", ["kh32", "tg48", "cylinder"])
    def test_cofactor_of_div_form_is_bitwise_the_curl_gram(self, benchmark_spaces, name):
        # reference: the 12-wide Gram assembly of the divergence coefficients
        # (dx phi, dy phi) and of the curl coefficients (-dy phi, +dx phi)
        space = benchmark_spaces[name]
        g = space.tables[:, :, 1:].reshape(len(space.tables), 12, -1)   # d_c phi_l of local DOF 2l + c
        coef = np.empty_like(g)
        coef[:, 0::2] = -g[:, 1::2]
        coef[:, 1::2] = g[:, 0::2]
        for got, want in ((space.div_form(), twelve_wide_gram(space, g)),
                          (space.curl_form(), twelve_wide_gram(space, coef))):
            assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def node_graph_pattern(space):
    """The P2 node graph as an SPD matrix: diagonal deg(s), off-diagonal -1."""
    graph = space._graph()
    row, deg = graph.rows()
    return sp.csr_matrix((np.where(graph.indices == row, deg[row], -1.0), graph.indices, graph.indptr),
                         shape=(deg.size,) * 2)


def mmd_saddle_order(space, pattern, numbering):
    """The saddle order of a complete MMD factorization of ``pattern`` numbered by ``numbering``.

    ``numbering[i]`` is the scalar node numbered i; the ranks are mapped back
    to the space's nodes and expanded to (u_x, u_y, p) per node.
    """
    rank = np.empty(numbering.size, dtype=np.int64)
    rank[numbering] = spla.splu(sp.csc_matrix(pattern[numbering][:, numbering]), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True}).perm_c
    key = np.empty(space.n_vel + space.n_press, dtype=np.int64)
    key[0 : space.n_vel : 2] = 3 * rank
    key[1 : space.n_vel : 2] = 3 * rank + 1
    key[space.n_vel + space.pressure_index] = 3 * rank[space.scalar_index[: space.n_vertices]] + 2
    return np.argsort(key)


class TestSaddleOrder:
    @pytest.mark.parametrize("name", ["kh32", "tg48", "cylinder", "rect5x3"])
    def test_order_matches_full_factor_order(self, benchmark_spaces, name):
        # reference: the perm_c of a complete MMD factorization of the RCM-numbered node graph
        space = benchmark_spaces[name]
        pattern = node_graph_pattern(space)
        rcm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        assert np.array_equal(space.saddle_order(), mmd_saddle_order(space, pattern, rcm))

    def test_matches_mass_matrix_ordering(self, kh16_saddle):
        # reference: RCM, then minimum degree, on the scalar mass matrix's own pattern
        space, _, _ = kh16_saddle
        scalar_mass = sp.csr_matrix(space.mass()[0::2, 0::2])
        rcm = reverse_cuthill_mckee(scalar_mass, symmetric_mode=True)
        assert np.array_equal(space.saddle_order(), mmd_saddle_order(space, scalar_mass, rcm))

    @pytest.mark.parametrize("name, problem, dt, nu, bound", [
        ("kh32", "kelvin-helmholtz", 0.02, 1 / 2800, 0.85),
        ("tg48", "taylor-green", 2.0 / 48 / 4, 0.01, 0.85),
        ("cylinder", "cylinder-channel", 0.0025, 5e-4, 1.02)])
    def test_fill_against_mmd_in_the_space_numbering(self, benchmark_spaces, name, problem, dt, nu, bound):
        # minimum degree breaks its ties by the numbering it starts from: the
        # space's own (vertices, then edge midpoints) fills most on the periodic meshes
        space = benchmark_spaces[name]
        boundary = {"kh32": kelvin_helmholtz_boundary(), "tg48": {}, "cylinder": cylinder_boundary()}[name]
        velocity = {"kelvin-helmholtz": kelvin_helmholtz_velocity, "taylor-green": taylor_green_velocity}.get(problem)
        # the cylinder at rest, with the boundary profile that run_fom sets
        u = space.dirichlet_data(boundary)[1] if velocity is None else build_initial_condition(velocity, space)
        mask, _ = constraint_mask(space, boundary)
        newton = _newton_matrix(space, "skew", saddle_block(space, 1 / dt, nu), u, mask)
        pattern = node_graph_pattern(space)
        natural = mmd_saddle_order(space, pattern, np.arange(pattern.shape[0]))
        assert factorize(newton, space.saddle_order()).nnz <= bound * factorize(newton, natural).nnz

    def test_permutation_cached_and_grouped_by_node(self, kh16_saddle):
        space, _, _ = kh16_saddle
        order = space.saddle_order()
        assert order is space.saddle_order()
        n_vel = space.n_vel
        assert np.array_equal(np.sort(order), np.arange(n_vel + space.n_press))
        position = np.argsort(order)
        # both components of a node are adjacent, x first
        assert np.all(position[1:n_vel:2] == position[0:n_vel:2] + 1)
        # a vertex's pressure directly follows its two velocity DOFs
        vertex = space.scalar_index[: space.n_vertices]
        assert np.all(position[n_vel + space.pressure_index] == position[2 * vertex + 1] + 1)

    def test_ordered_factor_solves_newton_system(self, kh16_saddle):
        space, newton, _ = kh16_saddle
        b = np.random.default_rng(8).standard_normal(newton.shape[0])
        x = solve_sparse(newton, b, space.saddle_order())
        assert np.linalg.norm(newton @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_stokes_fill_stays_near_newton_fill(self, kh16_saddle):
        # the projection's balanced mass block must keep diagonal pivots
        space, newton, stokes = kh16_saddle
        order = space.saddle_order()
        assert factorize(stokes, order).nnz <= 1.5 * factorize(newton, order).nnz

    def test_fill_below_colamd(self, kh16_saddle):
        space, newton, _ = kh16_saddle
        colamd = spla.splu(sp.csc_matrix(newton), permc_spec="COLAMD").nnz
        assert factorize(newton, space.saddle_order()).nnz <= 0.75 * colamd


class TestErrorQuadrature:
    def test_p2_function_is_exact(self, square8):
        from flowrom.fem import h1_semi_error, l2_error

        _, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (x * y, x * x))
        assert l2_error(space, u, lambda x, y, t: (x * y, x * x)) < 1e-13
        g = lambda x, y, t: ((y, x), (2 * x, np.zeros_like(x)))
        assert h1_semi_error(space, u, g) < 1e-12
