"""POD basis construction by the method of snapshots.

The snapshot Gram matrix ``C_ij = (u_i, u_j)_{L2} / (M+1)`` is
eigendecomposed and the modes are formed as the corresponding snapshot
combinations.  Two refinements keep the basis usable down to the rank
cutoff, where plain double-precision Gram eigenvectors lose orthogonality:

* the modes are re-orthonormalized in the mass inner product with two
  Cholesky-QR passes (upper-triangular correction, so mode ``k`` stays in
  the span of the first ``k`` raw modes and the energy ordering survives);
* the stored eigenvalues are then recomputed as Rayleigh quotients
  ``lambda_k = ||X^T M psi_k||^2 / (M+1)``, which avoids the accuracy loss
  of tiny eigenvalues in the squared Gram spectrum.

The raw (clamped) Gram spectrum is kept alongside for trace identities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numerics import sym_eig


@dataclass
class SnapshotSet:
    """Velocity coefficient snapshots, one column per recorded time."""

    matrix: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("snapshot matrix must be 2D (dofs x snapshots)")
        if self.matrix.shape[1] != self.times.size:
            raise ValueError("snapshot count does not match number of times")

    @property
    def count(self):
        return self.matrix.shape[1]


@dataclass
class PodBasis:
    """L2-orthonormal modes with eigenvalues and mode gradient seminorms.

    ``spectrum`` is the full clamped Gram spectrum (one entry per snapshot);
    ``eigenvalues`` holds the retained ``rank`` leading values.  ``mean`` is
    the snapshot average when centering was enabled, else ``None``.
    """

    modes: np.ndarray        # (ndof, rank)
    eigenvalues: np.ndarray  # (rank,)
    spectrum: np.ndarray     # (M+1,)
    grad_norms: np.ndarray   # (rank,)
    mean: np.ndarray = None

    @property
    def rank(self):
        return self.modes.shape[1]

    @property
    def centered(self):
        return self.mean is not None

    def fields(self, r):
        """The affine field set X = [ubar, psi_1..psi_r] as columns (ubar only when centered)."""
        if r > self.rank:
            raise ValueError(f"r={r} exceeds basis rank {self.rank}")
        return np.column_stack([self.mean, self.modes[:, :r]]) if self.centered else self.modes[:, :r]

    def extend(self, a):
        """State coefficients c = [1, a] on :meth:`fields` (``a`` itself when uncentered).

        Works on the last axis, so a trajectory (one state per row) extends row-wise.
        """
        a = np.asarray(a, dtype=float)
        return np.concatenate([np.ones(a.shape[:-1] + (1,)), a], axis=-1) if self.centered else a


def _m_orthonormalize(modes, mass, passes=2):
    """Cholesky-QR in the ``mass`` inner product; returns corrected modes."""
    for _ in range(passes):
        gram = modes.T @ (mass @ modes)
        gram = 0.5 * (gram + gram.T)
        chol = np.linalg.cholesky(gram)
        modes = scipy.linalg.solve_triangular(chol, modes.T, lower=True).T
    return modes


def build_pod_basis(snapshots, mass, stiffness, centering="none", rank_tol=1e-12):
    """Build the POD basis of a snapshot set.

    Parameters
    ----------
    snapshots : SnapshotSet
    mass, stiffness : sparse matrices
        Velocity mass matrix (the L2 inner product) and unscaled stiffness
        (for the stored mode gradient norms).
    centering : "none" or "mean"
        With ``"mean"`` the snapshot average is subtracted first; the modes
        then carry homogeneous values on any boundary where the snapshots
        agree.
    rank_tol : float
        Modes with ``lambda_k <= rank_tol * lambda_1`` are dropped.
    """
    if centering not in ("none", "mean"):
        raise ValueError(f"centering must be 'none' or 'mean', got {centering!r}")
    x = snapshots.matrix
    count = x.shape[1]
    if count < 1:
        raise ValueError("need at least one snapshot")
    mean = x.mean(axis=1) if centering == "mean" else None
    xc = x - mean[:, None] if mean is not None else x

    mx = mass @ xc
    gram = xc.T @ mx / count
    gram = 0.5 * (gram + gram.T)
    vals, vecs = sym_eig(gram)
    vals = np.clip(vals, 0.0, None)
    if vals[0] <= 0.0:
        raise ValueError("snapshot set has rank 0 (all snapshots vanish)")
    rank = int(np.sum(vals > rank_tol * vals[0]))
    modes = xc @ vecs[:, :rank] / np.sqrt(count * vals[:rank])
    modes = _m_orthonormalize(modes, mass)

    # Rayleigh-refined eigenvalues for the corrected directions
    proj = mx.T @ modes  # (count, rank): (u_j, psi_k)
    lam = np.einsum("jk,jk->k", proj, proj) / count
    grad_sq = np.einsum("ik,ik->k", modes, stiffness @ modes)
    return PodBasis(
        modes=modes,
        eigenvalues=lam,
        spectrum=vals,
        grad_norms=np.sqrt(np.clip(grad_sq, 0.0, None)),
        mean=mean,
    )


def pod_projection_error(basis, snapshots, r, mass, stiffness):
    """Both sides of the POD projection-error equality at rank ``r``.

    The left side averages the H1-seminorm of the out-of-basis part of each
    (centered) snapshot by direct assembly; the right side sums
    ``||grad psi_k||^2 lambda_k`` over the discarded modes.  The two are
    computed from independent data and agree to roundoff for an exact POD.
    """
    if not 0 <= r <= basis.rank:
        raise ValueError(f"r={r} outside [0, rank={basis.rank}]")
    xc = snapshots.matrix - basis.mean[:, None] if basis.centered else snapshots.matrix
    coeffs = basis.modes[:, :r].T @ (mass @ xc)
    resid = xc - basis.modes[:, :r] @ coeffs
    lhs = float(np.einsum("ij,ij->j", resid, stiffness @ resid).mean())
    rhs = float(np.sum(basis.grad_norms[r:] ** 2 * basis.eigenvalues[r:]))
    return lhs, rhs


def project_field(basis, r, u, mass):
    """L2-projection coefficients of ``u`` onto the first ``r`` modes."""
    if r > basis.rank:
        raise ValueError(f"r={r} exceeds basis rank {basis.rank}")
    du = u - basis.mean if basis.centered else u
    return basis.modes[:, :r].T @ (mass @ du)
