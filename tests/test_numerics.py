import math

import numpy as np
import pytest
import scipy.sparse as sp

from flowrom.numerics import (
    SingularSystemError,
    solve_sparse,
    sym_eig,
    triangle_quadrature,
)


def monomial_integral(p, q):
    """Exact integral of x^p y^q over the reference triangle: p! q! / (p+q+2)!."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def quad_integrate(rule, f):
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    return float(np.dot(rule.weights, f(x, y)))


class TestTriangleQuadrature:
    def test_weights_sum_to_reference_area(self):
        rule = triangle_quadrature()
        assert abs(rule.weights.sum() - 0.5) < 1e-14

    def test_constant(self):
        rule = triangle_quadrature()
        assert abs(quad_integrate(rule, lambda x, y: np.ones_like(x)) - 0.5) < 1e-14

    def test_linear(self):
        rule = triangle_quadrature()
        assert abs(quad_integrate(rule, lambda x, y: x) - 1.0 / 6.0) < 1e-14

    def test_x2y2(self):
        rule = triangle_quadrature()
        assert abs(quad_integrate(rule, lambda x, y: x**2 * y**2) - 1.0 / 180.0) < 1e-14

    def test_all_monomials_up_to_degree_5(self):
        rule = triangle_quadrature()
        for p in range(6):
            for q in range(6 - p):
                got = quad_integrate(rule, lambda x, y: x**p * y**q)
                assert got == pytest.approx(monomial_integral(p, q), abs=1e-14), (p, q)

    def test_degree_attribute_matches_exactness(self):
        rule = triangle_quadrature()
        assert rule.degree == 5  # single shared rule, actual exactness recorded
        # degree 6 monomial x^6 must NOT integrate exactly (rule is degree 5, not more)
        got = quad_integrate(rule, lambda x, y: x**6)
        assert abs(got - monomial_integral(6, 0)) > 1e-10


def power_iteration_eigs(m, tol=1e-14, iters=20000):
    """Brute-force dominant eigenpairs by power iteration with deflation."""
    m = np.array(m, dtype=float)
    n = m.shape[0]
    vals, vecs = [], []
    rng = np.random.default_rng(1234)
    for _ in range(n):
        v = rng.standard_normal(n)
        for u in vecs:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = m @ v
            for u in vecs:
                w -= (u @ w) * u
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            w /= nw
            lam_new = w @ (m @ w)
            if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
                v = w
                lam = lam_new
                break
            v, lam = w, lam_new
        vals.append(lam)
        vecs.append(v)
    order = np.argsort(vals)[::-1]
    return np.array(vals)[order]


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
        # sign rule: leading entry of each column positive
        for k in range(3):
            lead = np.argmax(np.abs(vecs[:, k]))
            assert vecs[lead, k] > 0

    def test_2x2_hand_solution(self):
        vals, vecs = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert vals == pytest.approx([3.0, 1.0], abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(vecs[:, 0], [s, s], atol=1e-12)
        assert np.allclose(vecs[:, 1], [s, -s], atol=1e-12)

    def test_gram_matrix_against_power_iteration(self):
        rng = np.random.default_rng(42)
        snaps = rng.standard_normal((30, 4))
        gram = snaps.T @ snaps
        vals, vecs = sym_eig(gram)
        ref = power_iteration_eigs(gram)
        assert np.all(np.abs(vals - ref) <= 1e-9 * ref[0])
        # residual and orthonormality
        for k in range(4):
            r = gram @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(gram, 2)
        assert np.abs(vecs.T @ vecs - np.eye(4)).max() < 1e-10

    def test_trace_preservation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        m = a + a.T
        vals, _ = sym_eig(m)
        assert vals.sum() == pytest.approx(np.trace(m), rel=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9))
        m = a @ a.T
        v1 = sym_eig(m)
        v2 = sym_eig(m.copy())
        assert np.array_equal(v1[0], v2[0])
        assert np.array_equal(v1[1], v2[1])


class TestSolveSparse:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = solve_sparse(sp.eye(3, format="csr"), b, np.arange(3))
        assert np.allclose(x, b)

    def test_tridiagonal_laplacian(self):
        a = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(3, 3), format="csr")
        x = solve_sparse(a, np.ones(3), np.arange(3))
        assert x == pytest.approx([1.5, 2.0, 1.5], abs=1e-12)

    def test_random_spd_residual_bound(self):
        rng = np.random.default_rng(11)
        for n in (5, 20, 60):
            dense = rng.standard_normal((n, n))
            a = sp.csr_matrix(dense @ dense.T + n * np.eye(n))
            b = rng.standard_normal(n)
            x = solve_sparse(a, b, np.arange(n))
            norm_a = spnorm = np.sqrt((a.multiply(a)).sum())
            res = np.linalg.norm(a @ x - b)
            assert res <= 1e-10 * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))

    def test_structural_singularity_names_row(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        a.eliminate_zeros()
        with pytest.raises(SingularSystemError, match="row 1"):
            solve_sparse(a, np.ones(2), np.arange(2))

    def test_numerical_singularity(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            solve_sparse(a, np.ones(2), np.arange(2))
