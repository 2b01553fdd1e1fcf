"""Dense/sparse linear algebra and triangle quadrature.

Everything downstream (assembly, POD, reduced systems) funnels through the
three operations here so that solver and quadrature behavior is fixed in one
place:

* ``sym_eig``      -- symmetric eigendecomposition with a deterministic sign
                      convention, used for snapshot Gram matrices.
* ``solve_sparse`` -- direct sparse solve (LU with diagonal-preferring
                      threshold pivoting in a given order) for the
                      saddle-point systems.
* ``triangle_quadrature`` -- one degree-5, 7-point rule on the reference
                      triangle; exact for every integrand this package
                      assembles (trilinear terms are degree 5 on affine
                      elements).

All functions are pure and operate on plain numpy arrays / scipy sparse
matrices.  ``factorize`` takes the fill-reducing order from the caller:
the saddle-point systems use ``TaylorHoodSpace.saddle_order``, a minimum
degree order of the P2 node graph.  A factorization still costs as much
as dozens of solves with it, so the full-order solver holds one and reuses
it across Newton iterations and time steps (see ``flowrom.fom``).
Factors are not meant to be shared across threads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
        Symmetric matrix (checked to 1e-12 relative).

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
# The Stokes-projection matrix (mass block only, no 1/dt scaling) is the
# tightest case: on the 32x32 shear layer a threshold of 0.1 already moves
# its velocity pivots, and its fill grows from 1.38M to 47M entries.  A
# smaller threshold would only admit smaller, less stable pivots.
PIVOT_THRESHOLD = 0.01


class Factor:
    """LU factors of ``m[order][:, order]``, solving with ``m`` itself.

    ``nnz`` is the fill, the stored entries of L and U together.
    """

    def __init__(self, lu, order):
        self._lu = lu
        self._order = order
        self.nnz = lu.nnz

    def solve(self, rhs):
        """Solve ``m x = rhs``."""
        rhs = np.asarray(rhs, dtype=float)
        x = np.empty_like(rhs)
        x[self._order] = self._lu.solve(rhs[self._order])
        return x


def factorize(m, order):
    """LU-factorize a square sparse matrix for repeated solves.

    Factors ``m[order][:, order]`` with SuperLU, keeping that column order
    and preferring diagonal pivots (``PIVOT_THRESHOLD``).  ``order`` is a
    fill-reducing permutation of the unknowns; a finite-element matrix in
    its natural order fills catastrophically.  Returns a :class:`Factor`.
    """
    m = sp.csc_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    # A structurally empty row can never be pivoted; report it by index since
    # it almost always points at a forgotten constraint.
    row_counts = np.diff(sp.csr_matrix(m).indptr)
    empty = np.flatnonzero(row_counts == 0)
    if empty.size:
        raise SingularSystemError(
            f"matrix is structurally singular: row {empty[0]} is empty "
            "(missing pressure constraint or disconnected mesh?)"
        )
    m = sp.csc_matrix(m[order][:, order])
    try:
        lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse LU factorization failed ({exc}); a pivot vanished -- check "
            "constraint application and mesh connectivity"
        ) from exc
    return Factor(lu, order)


def solve_sparse(m, rhs, order):
    """Solve ``m x = rhs`` by direct factorization in ``order`` (see ``factorize``).

    The residual satisfies ||m x - rhs|| <= 1e-10 (||m|| ||x|| + ||rhs||) for
    any nonsingular system; no tuning knobs are exposed.
    """
    rhs = np.asarray(rhs, dtype=float)
    lu = factorize(m, order)
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "sparse solve produced non-finite values; the system is numerically "
            "singular (missing pressure constraint or disconnected mesh?)"
        )
    return x
