"""Dense/sparse linear algebra, triangle quadrature and the time scheme.

Everything downstream (assembly, POD, reduced systems) funnels through the
operations here so that solver, quadrature and time-stepping behavior is
fixed in one place:

* ``sym_eig``      -- symmetric eigendecomposition with a deterministic sign
                      convention, used for snapshot Gram matrices.
* ``solve_sparse`` -- direct sparse solve (LU with diagonal-preferring
                      threshold pivoting in a given order, refined in
                      float64) for the saddle-point systems.
* ``triangle_quadrature`` -- one degree-5, 7-point rule on the reference
                      triangle; exact for every integrand this package
                      assembles (trilinear terms are degree 5 on affine
                      elements).
* ``step_count``, ``implicit_step``, ``uniform_step`` -- the one implicit
                      time scheme and grid that the FOM and the ROM both step:
                      backward Euler, or BDF2 started by one theta = 2/3
                      step, which shares BDF2's Newton matrix.  Newton stops
                      at ``NEWTON_TOL``, or raises ``NewtonConvergenceError``
                      after ``NEWTON_MAX_ITER`` updates.  ``times_agree`` is
                      the one rule for whether two times on a grid are the same.

All functions are pure and operate on plain numpy arrays / scipy sparse
matrices.  ``factorize`` takes the fill-reducing order from the caller:
the saddle-point systems use ``TaylorHoodSpace.saddle_order``, a minimum
degree order of the P2 node graph in its reverse Cuthill-McKee numbering.
A factorization still costs as much as dozens of solves with it, so the
full-order solver holds one and reuses it across Newton iterations and
time steps (see ``flowrom.fom``).

Every LU is single precision, and every residual double (mixed-precision
iterative refinement, Carson & Higham, SISC 40, 2018): ``factorize`` casts
the values to float32 once, before it permutes them, and a solve casts the
permuted right-hand side and returns float64.  A float32 solve is accurate
to about 1e-5 relative on the Newton system, which the chord iteration
absorbs like any other approximate Jacobian.  ``solve_sparse`` (the Stokes
projection) refines its float32 solve with float64 residuals to a float64
backward error.  Factors are not meant to be shared across threads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NewtonConvergenceError(RuntimeError):
    """Newton failed to reach tolerance in a step of the FOM or the ROM.

    ``step`` is the index of the failing step and ``residual`` the last
    residual norm.  In the FOM it usually means the time step is too large;
    inconsistent shear-layer ROMs are expected to trip it.
    """

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class SingularSystemError(RuntimeError):
    """Raised when a sparse factorization hits a zero pivot.

    Usually means a missing pressure constraint or a disconnected mesh.
    """


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    ``points`` holds barycentric coordinates, one row per node; ``weights``
    sum to the reference-triangle area 1/2.  ``degree`` is the actual
    polynomial exactness of the rule.
    """

    points: np.ndarray   # (nq, 3) barycentric
    weights: np.ndarray  # (nq,)
    degree: int


def triangle_quadrature():
    """The degree-5, 7-point rule that every integral in the package shares."""
    # Radon's 7-point rule: centroid plus two symmetric orbits.
    s15 = np.sqrt(15.0)
    a = (6.0 - s15) / 21.0
    b = (6.0 + s15) / 21.0
    wa = (155.0 - s15) / 1200.0
    wb = (155.0 + s15) / 1200.0
    pts = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3],
            [1 - 2 * a, a, a],
            [a, 1 - 2 * a, a],
            [a, a, 1 - 2 * a],
            [1 - 2 * b, b, b],
            [b, 1 - 2 * b, b],
            [b, b, 1 - 2 * b],
        ]
    )
    w = 0.5 * np.array([9 / 40, wa, wa, wa, wb, wb, wb])
    return QuadratureRule(points=pts, weights=w, degree=5)


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix (checked to 1e-12 relative, then symmetrized).

    Returns
    -------
    eigenvalues : (n,) ndarray, descending
    eigenvectors : (n, n) ndarray
        Orthonormal, one eigenvector per column, matching the eigenvalue
        order.  Sign convention: in each column the entry of largest
        magnitude is positive (first such entry on ties), so repeated calls
        and different backends produce identical output.

    Raises
    ------
    ValueError
        Non-square or asymmetric input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"sym_eig expects a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-12 * scale:
        raise ValueError("sym_eig expects a symmetric matrix (asymmetry above 1e-12 relative)")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise RuntimeError(f"symmetric eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    # deterministic sign: largest-magnitude entry of each column positive
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs = vecs * signs
    return vals, vecs


# SuperLU pivots on the diagonal unless it is smaller than this fraction of
# the largest entry in its column, so the factors keep the caller's
# fill-reducing order.  A free pressure has a zero diagonal and pivots off it.
# The Newton matrices and the balanced Stokes projection (see
# ``fom.stokes_project``) of the shear layer and the torus keep every pivot
# up to a threshold of 0.1; at 0.5 the 32x32 shear layer's Newton matrix
# swaps 124 rows and fills 6% more.  A smaller threshold would only admit
# smaller, less stable pivots.
PIVOT_THRESHOLD = 0.01


# A float64 refinement of a float32 solve gains about -log10(kappa u32)
# digits, u32 = 6e-8: two or three steps reach roundoff on the projections
# this package solves.  The loop stops as soon as the residual stops halving.
MAX_REFINEMENTS = 4


class Factor:
    """Float32 LU factors of ``m[order][:, order]``, solving with ``m`` itself.

    ``nnz`` is the fill, the stored entries of L and U together.  Solutions
    are float64.
    """

    def __init__(self, lu, order):
        self._lu = lu
        self._order = order
        self.nnz = lu.nnz

    def solve(self, rhs):
        """Solve ``m x = rhs`` to float32 accuracy."""
        rhs = np.asarray(rhs)
        x = np.empty(rhs.shape)
        x[self._order] = self._lu.solve(rhs[self._order].astype(np.float32))
        return x


def _permuted_csc(m, order):
    """``m[order][:, order]`` of CSR ``m`` as float32 CSC: values cast, one row gather, columns relabeled."""
    position = np.empty(order.size, dtype=m.indices.dtype)
    position[order] = np.arange(order.size)
    rows = sp.csr_matrix((m.data.astype(np.float32), m.indices, m.indptr), shape=m.shape)[order]
    rows.indices = position[rows.indices]
    rows.has_sorted_indices = False
    return rows.tocsc()


def factorize(m, order):
    """LU-factorize a square sparse matrix in float32 for repeated solves.

    Factors ``m[order][:, order]`` with SuperLU, keeping that column order
    and preferring diagonal pivots (``PIVOT_THRESHOLD``).  ``order`` is a
    fill-reducing permutation of the unknowns; a finite-element matrix in
    its natural order fills catastrophically.  The values are cast to
    float32 once, before the permutation gathers them (``m`` is not
    copied in float64), and each solve casts its permuted right-hand side.
    Returns a :class:`Factor`.
    """
    m = sp.csr_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    # A structurally empty row can never be pivoted; report it by index since
    # it almost always points at a forgotten constraint.
    empty = np.flatnonzero(np.diff(m.indptr) == 0)
    if empty.size:
        raise SingularSystemError(
            f"matrix is structurally singular: row {empty[0]} is empty "
            "(missing pressure constraint or disconnected mesh?)"
        )
    try:
        lu = spla.splu(_permuted_csc(m, np.asarray(order)), permc_spec="NATURAL",
                       diag_pivot_thresh=PIVOT_THRESHOLD, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse LU factorization failed ({exc}); a pivot vanished -- check "
            "constraint application and mesh connectivity"
        ) from exc
    return Factor(lu, order)


def solve_sparse(m, rhs, order):
    """Solve ``m x = rhs`` by a float32 factorization in ``order``, refined in float64.

    ``m`` is factorized once (see ``factorize``); then x += F.solve(rhs - m x)
    with float64 residuals until the residual norm stops halving, at most
    ``MAX_REFINEMENTS`` times.  The result satisfies
    ||m x - rhs|| <= 1e-10 (||m|| ||x|| + ||rhs||), Frobenius norm of ``m``,
    or :class:`SingularSystemError` is raised.  Refinement converges only
    while kappa(m) u32 < 1, u32 = 6e-8, so a system too ill-conditioned for
    a float32 LU (kappa above about 1e7) is refused, although a float64 LU
    might solve it.  No tuning knobs are exposed.
    """
    m = sp.csr_matrix(m)
    rhs = np.asarray(rhs, dtype=float)
    lu = factorize(m, order)
    x = lu.solve(rhs)
    residual = rhs - m @ x
    res_norm = np.linalg.norm(residual)
    for _ in range(MAX_REFINEMENTS):
        refined = x + lu.solve(residual)
        refined_residual = rhs - m @ refined
        refined_norm = np.linalg.norm(refined_residual)
        if not refined_norm < 0.5 * res_norm:
            break
        x, residual, res_norm = refined, refined_residual, refined_norm
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "sparse solve produced non-finite values; the system is numerically "
            "singular (missing pressure constraint or disconnected mesh?)"
        )
    bound = 1e-10 * (np.linalg.norm(m.data) * np.linalg.norm(x) + np.linalg.norm(rhs))
    if not res_norm <= bound:
        raise SingularSystemError(
            f"sparse solve left a residual of {res_norm:.3e} against its bound {bound:.3e}; "
            "the system is too ill-conditioned for a float32 factorization"
        )
    return x


def times_agree(t, s):
    """Whether times ``t`` equal ``s`` on a grid, ``|t - s| <= 1e-9 max(1, |s|)``, elementwise."""
    return np.abs(t - s) <= 1e-9 * np.maximum(1.0, np.abs(s))


def grid_step(t, dt):
    """The step n that time ``t`` lies on (``times_agree(n dt, t)``), or None if there is none."""
    n = int(round(t / dt))
    return n if times_agree(n * dt, t) else None


def step_count(dt, t_end):
    """The steps ``dt`` in ``t_end``, both positive and finite and ``t_end`` on a step (:func:`grid_step`) past 0."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    n_steps = grid_step(t_end, dt)
    if n_steps is None:
        raise ValueError("t_end must be an integer multiple of dt")
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end:g} holds no step of dt = {dt:g}")
    return n_steps


# the schemes of both models, and each step's Newton residual norm and update budget
SCHEMES = ("backward_euler", "bdf2")
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 20


def implicit_step(scheme, x, x_prev):
    """``(alpha, history, start, weight)`` of the step after ``x``.

    The step solves alpha x_new - history = dt (f(x_new) + weight f(x))
    for dx/dt = f, and Newton starts from ``start``.  Backward Euler is
    (1, x, 2 x - x_prev, 0), starting from ``x`` on the first step.  BDF2
    is (3/2, 2 x - x_prev / 2, 2 x - x_prev, 0) once ``x_prev`` exists.
    Its first step is the theta method at theta = 2/3, divided by theta:
    (3/2, 3/2 x, x, 1/2).  That step is A-stable, its local error
    (theta - 1/2) dt^2 x'' is a third of backward Euler's, so BDF2 stays
    second order, and its alpha is BDF2's: one Newton matrix serves the
    whole run.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "bdf2":
        if x_prev is None:
            return 1.5, 1.5 * x, x, 0.5
        return 1.5, 2.0 * x - 0.5 * x_prev, 2.0 * x - x_prev, 0.0
    if x_prev is None:
        return 1.0, x, x, 0.0
    return 1.0, x, 2.0 * x - x_prev, 0.0


def uniform_step(times):
    """The step of the time grid ``times``: at least two times, increasing by one step (to 1e-9)."""
    steps = np.diff(times)
    if not (steps.size and steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
        raise ValueError("the time grid is not uniform (at least two times, one increasing step)")
    return float(steps[0])
