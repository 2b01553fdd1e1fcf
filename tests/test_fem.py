import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import flowrom
from flowrom.fem import (
    NonlinearForm,
    TaylorHoodSpace,
    apply_constraints,
    assemble_linear_operators,
    constrain_rows,
    constraint_mask,
    field_norms,
    nonlinear_jacobian,
    nonlinear_residual,
    trilinear_value,
)
from flowrom.mesh import load_bundled_mesh, uniform_rect_mesh
from flowrom.numerics import factorize, solve_sparse

from conftest import oracle_quadrature

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
    areas = mesh.signed_areas()
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
    areas = mesh.signed_areas()
    vals = density_at(bary)
    return float(np.einsum("q,e,eq->", w, 2 * areas, vals))


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
            areas = mesh.signed_areas()
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
    def test_noslip_zero_rhs_gives_zero(self, square8):
        mesh, space = square8
        M, K, _ = assemble_linear_operators(mesh, space, 1.0)
        bc = {lab: ("noslip",) for lab in ("left", "right", "top", "bottom")}
        a, rhs = apply_constraints(space, M + K, np.zeros(space.n_vel), bc)
        x = solve_sparse(a, rhs, np.arange(space.n_vel))
        assert np.abs(x).max() < 1e-14

    def test_inflow_profile_midpoint_value(self):
        mesh = load_bundled_mesh("cylinder")
        space = TaylorHoodSpace(mesh)
        from flowrom.fom import cylinder_boundary

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


@pytest.fixture(scope="module")
def kh16_saddle():
    """16x16 shear-layer space with its Newton (skew, BE, dt 0.02) and Stokes-projection matrices."""
    from flowrom.fom import build_initial_condition, kelvin_helmholtz_boundary

    mesh = flowrom.identify_periodic(uniform_rect_mesh(16, 16), "x")
    space = TaylorHoodSpace(mesh)
    boundary = kelvin_helmholtz_boundary()
    n = space.n_vel + space.n_press
    div = space.divergence()
    u = build_initial_condition("kelvin-helmholtz", space)
    block = space.mass() / 0.02 + space.stiffness() / 2800 + nonlinear_jacobian(space, "skew", u)
    mask, _ = constraint_mask(space, boundary, 0.02, n)
    newton = constrain_rows(sp.bmat([[block, -div.T], [div, None]], format="csr"), mask)
    stokes, _ = apply_constraints(space, sp.bmat([[space.mass(), -div.T], [div, None]], format="csr"),
                                  np.zeros(n), boundary)
    return space, newton, stokes


class TestSaddleOrder:
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
        x = factorize(newton, space.saddle_order()).solve(b)
        assert np.linalg.norm(newton @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_stokes_fill_stays_near_newton_fill(self, kh16_saddle):
        # the unscaled mass block of the projection must keep diagonal pivots
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
