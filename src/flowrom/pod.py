"""POD basis construction by the method of snapshots.

The snapshot Gram matrix ``C_ij = (u_i, u_j)_{L2} / (M+1)`` is
eigendecomposed and the modes are formed as the corresponding snapshot
combinations.  Two refinements keep the basis usable down to the rank
cutoff ``RANK_TOL``, where plain double-precision Gram eigenvectors lose
orthogonality:

* the modes are re-orthonormalized in the mass inner product with two
  Cholesky-QR passes (upper-triangular correction, so mode ``k`` stays in
  the span of the first ``k`` raw modes and the energy ordering survives);
* the stored eigenvalues are then recomputed as Rayleigh quotients
  ``lambda_k = ||X^T M psi_k||^2 / (M+1)``, which avoids the accuracy loss
  of tiny eigenvalues in the squared Gram spectrum.

The raw (clamped) Gram spectrum is kept alongside for trace identities.

The same pass writes the snapshots in the basis's coordinates
(:class:`SnapshotCoordinates`): their coefficients on every mode, which
are also the Rayleigh quotients' projections, and the norms of the part
outside the basis.  The projection-error equality and the ROM error
functionals (``diagnostics.reduced_trajectory_error``) read only these, so
once the basis is built no stage needs the snapshot matrix again.

Besides the snapshot matrix and the modes, the pass holds at most two
snapshot-sized arrays at once (M X, then the part outside the basis and
its K or M product), and X - ubar as well when centered.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numerics import sym_eig

# the rank cutoff: a basis keeps the modes with lambda_k > RANK_TOL * lambda_1
RANK_TOL = 1e-12


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
    ``coordinates`` are the :class:`SnapshotCoordinates` of the snapshots it
    was built from.  ``projection`` is the ``rom.RomProjection`` of the
    leading :meth:`fields`, which ``flowrom pod`` sets before it stores the
    basis: None only in memory, before that, and never in an archive.
    """

    modes: np.ndarray        # (ndof, rank)
    eigenvalues: np.ndarray  # (rank,)
    spectrum: np.ndarray     # (M+1,)
    grad_norms: np.ndarray   # (rank,)
    mean: np.ndarray = None
    projection: object = None
    coordinates: object = None

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


def extend(a, centered):
    """State coefficients c = [1, a] on the :meth:`PodBasis.fields` of a ``centered`` basis, else ``a``
    itself; on the last axis, so a trajectory (one state per row) extends row-wise."""
    return np.concatenate([np.ones(np.shape(a)[:-1] + (1,)), a], axis=-1) if centered else a


@dataclass
class SnapshotCoordinates:
    """Snapshots u^n in the coordinates of a basis with modes Psi and mean ubar.

    Row n of ``coeffs`` is a_hat^n = Psi^T M (u^n - ubar) on all ``rank``
    modes (ubar = 0 when uncentered), and w^n = u^n - ubar - Psi a_hat^n is
    the part outside the basis, M-orthogonal to it.  The remaining blocks
    are the norms of w^n and u^n that the error functionals need: K is the
    stiffness matrix and ``div_norms`` the ``div_form`` seminorms.
    """

    times: np.ndarray             # (N,)
    coeffs: np.ndarray            # (N, rank)    a_hat^n
    outside_stiff: np.ndarray     # (N, rank)    Psi^T K w^n
    outside_mass_sq: np.ndarray   # (N,)         ||w^n||_M^2
    outside_stiff_sq: np.ndarray  # (N,)         ||w^n||_K^2
    h1_norms: np.ndarray          # (N,)         ||grad u^n||
    div_norms: np.ndarray         # (N,)         ||div u^n||
    stiff_gram: np.ndarray        # (rank, rank) Psi^T K Psi

    @property
    def count(self):
        return self.times.size


def _column_norms(u, op):
    """The ``op``-norm of every column of ``u``."""
    return np.sqrt(np.clip(np.einsum("ij,ij->j", u, op @ u), 0.0, None))


def _m_orthonormalize(modes, mass):
    """Two passes of Cholesky-QR in the ``mass`` inner product; returns corrected modes."""
    for _ in range(2):
        gram = modes.T @ (mass @ modes)
        gram = 0.5 * (gram + gram.T)
        chol = np.linalg.cholesky(gram)
        modes = scipy.linalg.solve_triangular(chol, modes.T, lower=True).T
    return modes


def build_pod_basis(snapshots, space, centering="none"):
    """Build the POD basis of a snapshot set, with the snapshots' coordinates on it.

    Parameters
    ----------
    snapshots : SnapshotSet
    space : fem.TaylorHoodSpace
        Gives the velocity mass matrix (the L2 inner product), the unscaled
        stiffness and the ``div_form`` of the snapshot divergence norms.
    centering : "none" or "mean"
        With ``"mean"`` the snapshot average is subtracted first; the modes
        then carry homogeneous values on any boundary where the snapshots
        agree.

    Modes with ``lambda_k <= RANK_TOL * lambda_1`` are dropped.
    M X (released before the part outside the basis is formed), a_hat =
    (M X)^T Psi and K Psi are each formed once for the basis and its
    coordinates.  Besides the snapshots and the modes, at most two
    snapshot-sized arrays are alive at once (three when centered, while
    X - ubar lives): the snapshot norms are taken first, and K w and M w
    are freed as soon as their coordinates are formed.
    """
    if centering not in ("none", "mean"):
        raise ValueError(f"centering must be 'none' or 'mean', got {centering!r}")
    x = snapshots.matrix
    count = x.shape[1]
    if count < 1:
        raise ValueError("need at least one snapshot")
    mass, stiffness = space.mass(), space.stiffness()
    h1_norms, div_norms = _column_norms(x, stiffness), _column_norms(x, space.div_form())
    mean = x.mean(axis=1) if centering == "mean" else None
    xc = x - mean[:, None] if mean is not None else x

    mx = mass @ xc
    gram = xc.T @ mx / count
    vals, vecs = sym_eig(gram)
    vals = np.clip(vals, 0.0, None)
    if vals[0] <= 0.0:
        raise ValueError("snapshot set has rank 0 (all snapshots vanish)")
    rank = int(np.sum(vals > RANK_TOL * vals[0]))
    # the raw modes are bound to no name here, so each pass frees the last one
    modes = _m_orthonormalize(xc @ vecs[:, :rank] / np.sqrt(count * vals[:rank]), mass)

    coeffs = mx.T @ modes  # (count, rank): a_hat^n_k = (u^n - ubar, psi_k)_M
    del mx
    outside = modes @ coeffs.T
    np.subtract(xc, outside, out=outside)   # w = x - ubar - Psi a_hat, in the product's buffer
    del xc
    k_outside = stiffness @ outside
    outside_stiff, outside_stiff_sq = (modes.T @ k_outside).T, np.einsum("ij,ij->j", outside, k_outside)
    del k_outside
    outside_mass_sq = np.einsum("ij,ij->j", outside, mass @ outside)
    del outside
    k_modes = stiffness @ modes
    # Rayleigh-refined eigenvalues for the corrected directions
    lam = np.einsum("jk,jk->k", coeffs, coeffs) / count
    grad_sq = np.einsum("ik,ik->k", modes, k_modes)
    coordinates = SnapshotCoordinates(
        times=snapshots.times.copy(),
        coeffs=coeffs,
        outside_stiff=outside_stiff,
        outside_mass_sq=outside_mass_sq,
        outside_stiff_sq=outside_stiff_sq,
        h1_norms=h1_norms,
        div_norms=div_norms,
        stiff_gram=modes.T @ k_modes,
    )
    return PodBasis(
        modes=modes,
        eigenvalues=lam,
        spectrum=vals,
        grad_norms=np.sqrt(np.clip(grad_sq, 0.0, None)),
        mean=mean,
        coordinates=coordinates,
    )


def pod_projection_error(basis):
    """Both sides of the POD projection-error equality at every rank r = 0..rank.

    Returns arrays ``(lhs, rhs)`` of length ``rank + 1``, indexed by r.  The
    left side averages the H1-seminorm of the out-of-basis part of each
    (centered) snapshot, from the basis's :class:`SnapshotCoordinates`; the right
    side sums ``||grad psi_k||^2 lambda_k`` over the discarded modes.  The
    two are computed from independent data and agree to roundoff for an
    exact POD.

    With C = a_hat^T (rank x N) and w the part outside the whole basis, the
    out-of-basis part at rank r is w + Psi_{k>=r} C_{k>=r}, so

        lhs(r) = mean ||w||_K^2 + 2 sum_{k>=r} mean(C_k (Psi^T K w)_k)
                 + sum_{k,l>=r} (Psi^T K Psi)_kl (C C^T / N)_kl,

    each sum taken from the tail end, so no term cancels a larger one.
    """
    coordinates = basis.coordinates
    coeffs = coordinates.coeffs.T
    count = coordinates.count
    cross = np.einsum("kj,kj->k", coeffs, coordinates.outside_stiff.T) / count
    inside = coordinates.stiff_gram * (coeffs @ coeffs.T / count)
    # inside_tail[r] = sum of inside[k, l] over k, l >= r
    inside_tail = np.cumsum(np.cumsum(inside[::-1, ::-1], axis=0), axis=1)[::-1, ::-1].diagonal()
    lhs = coordinates.outside_stiff_sq.mean() \
        + np.append(2.0 * _tail_sums(cross) + inside_tail, 0.0)
    rhs = np.append(_tail_sums(basis.grad_norms**2 * basis.eigenvalues), 0.0)
    return lhs, rhs


def _tail_sums(v):
    """``out[r] = sum(v[r:])``, accumulated from the end."""
    return np.cumsum(v[::-1])[::-1]


def project_field(basis, r, u, mass):
    """L2-projection coefficients of ``u`` onto the first ``r`` modes."""
    if r > basis.rank:
        raise ValueError(f"r={r} exceeds basis rank {basis.rank}")
    du = u - basis.mean if basis.centered else u
    return basis.modes[:, :r].T @ (mass @ du)
