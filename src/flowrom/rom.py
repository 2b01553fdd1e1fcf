"""Reduced operators and online Galerkin-ROM time integration.

The reduced state u = ubar + sum_j a_j psi_j is written on the affine field
set X = [ubar, psi_1..psi_r] (``PodBasis.fields``; ubar only for a centered
basis) with state coefficients c = [1, a] (``PodBasis.extend``).  X has
m = o + r columns, o = 1 when centered and 0 otherwise, and projecting the
momentum equation onto the modes gives the r x m x m tensor and r x m
viscous matrix

    T[i][j][k] = b(X_j, X_k, psi_i),    V[i][j] = nu (grad X_j, grad psi_i),

so the reduced residual is N(c) + V c with N(c)_i = sum_jk T[i,j,k] c_j c_k.
A centered ROM's mean couplings and constant are the entries with j or k = 0.

Offline, the m fields go through the same pointwise form densities as the
full-order assembly (``fem._transport`` and ``fem._density``) in one element
loop: the values, gradients and transport factors of all m fields are formed
once, and each transported field k then costs one density over the m
advecting fields and one (m x 2P)(2P x m) matrix product, with P = elements
x quadrature points, so assembly is O(m^3 P): linear in the mesh, cubic in
the modes.

Online, each implicit step solves the r-dimensional system by Newton with
the analytic Jacobian of the quadratic term and a dense factorization,
mirroring the full-order scheme (BDF2 starts with one backward-Euler step).
The quadratic term and its Jacobian are matrix-vector products with the
tensor viewed as an (r*m) x m matrix, so a step costs O(r m^2) per
iteration, independent of the finite element dimension.
"""

from dataclasses import dataclass

import numpy as np

from .fem import NonlinearForm, _density, _transport


class RomNewtonError(RuntimeError):
    """Online Newton diverged; inconsistent ROMs are expected to trip this."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class RomOperators:
    """Reduced operators of one nonlinear form at one mode count, on X = [ubar, psi].

    ``visc`` is (r, m) and ``tensor`` (r, m, m), with m = r + 1 for a
    centered basis (column 0 is the mean) and m = r otherwise; methods take
    state coefficients c = :meth:`extend` (a).  The reduced mass is the
    identity (orthonormal modes) and is never stored.
    """

    visc: np.ndarray            # (r, m)    nu (grad X_j, grad psi_i)
    tensor: np.ndarray          # (r, m, m) T[i, j, k] = b(X_j, X_k, psi_i)

    @property
    def r(self):
        return self.tensor.shape[0]

    def extend(self, a):
        """c = [1, a] for a centered basis, else ``a`` itself (no copy)."""
        if self.tensor.shape[1] == self.r:
            return a
        return np.concatenate([[1.0], a])

    def quadratic(self, c):
        """N(c)_i = sum_jk T[i, j, k] c_j c_k."""
        r, m = self.tensor.shape[:2]
        return (self.tensor.reshape(r * m, m) @ c).reshape(r, m) @ c

    def quadratic_jacobian(self, c):
        """J[i, j] = dN_i/da_j = sum_k (T[i, o+j, k] + T[i, k, o+j]) c_k, o = m - r."""
        r, m = self.tensor.shape[:2]
        jac = (self.tensor.reshape(r * m, m) @ c).reshape(r, m) + np.matmul(c, self.tensor)
        return jac[:, m - r:]


@dataclass
class RomTrajectory:
    """Reduced coefficient vectors per step (row n is a^n).

    ``newton_iters[n]`` counts the Newton updates of the step ending at
    ``times[n]`` (0 for the initial state); it is None for a trajectory read
    back from a CSV.
    """

    coeffs: np.ndarray  # (nsteps + 1, r)
    times: np.ndarray
    newton_iters: np.ndarray = None

    def __post_init__(self):
        if self.coeffs.shape[0] != self.times.size:
            raise ValueError("trajectory length does not match times")


def _trilinear_tensor(space, form, fields):
    """Dense tensor T[i, j, k] = b(X_j, X_k, X_i) of the columns X of ``fields``."""
    m = fields.shape[1]
    vals, grads = space.values_and_grads(np.ascontiguousarray(fields.T))  # (2, m, e, q), (2, 2, m, e, q)
    tested = (vals * space.wdet).transpose(1, 0, 2, 3).reshape(m, -1)   # (m, 2*e*q)
    transport = _transport(form, vals, grads)                       # all m advecting fields
    s = np.empty((m, 2) + space.wdet.shape)                         # field j, component, e, q
    tensor = np.empty((m, m, m))
    for k in range(m):
        _density(transport, vals[:, k], grads[:, :, k], out=s.transpose(1, 0, 2, 3))
        tensor[:, :, k] = tested @ s.reshape(m, -1).T
    return tensor


def assemble_rom_operators(space, basis, r, form, nu):
    """Project the momentum operators onto the leading ``r`` modes.

    Every tensor entry equals the full-order ``trilinear_value`` of the
    corresponding field triple.
    """
    form = NonlinearForm.parse(form)
    x = basis.fields(r)
    o = x.shape[1] - r
    tensor = _trilinear_tensor(space, form, x)[o:]
    visc = nu * (x[:, o:].T @ (space.stiffness() @ x))
    visc[:, o:] = 0.5 * (visc[:, o:] + visc[:, o:].T)
    return RomOperators(visc=visc, tensor=tensor)


def run_rom(ops, a0, dt, t_end, scheme="backward_euler",
            newton_tol=1e-10, newton_max_iter=20):
    """Integrate the reduced system implicitly from coefficients ``a0``.

    Mirrors the full-order stepping: backward Euler or BDF2 (with a
    backward-Euler first step), Newton iteration to ``newton_tol`` on the
    r-dimensional residual, dense linear solves.  The trajectory records
    the Newton updates of each step.  Raises :class:`RomNewtonError` with the
    failing step index on divergence.
    """
    if scheme not in ("backward_euler", "bdf2"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")

    r = ops.r
    a = np.array(a0, dtype=float)
    if a.shape != (r,):
        raise ValueError(f"a0 has shape {a.shape}, expected ({r},)")
    visc_modes = ops.visc[:, ops.visc.shape[1] - r:]

    coeffs = np.empty((n_steps + 1, r))
    coeffs[0] = a
    newton_iters = np.zeros(n_steps + 1, dtype=int)
    a_prev = None
    shift_alpha = None
    for n in range(n_steps):
        bdf2 = scheme == "bdf2" and a_prev is not None
        alpha = 1.5 if bdf2 else 1.0
        if alpha != shift_alpha:
            # the Jacobian's linear part, once per scheme phase; the residual
            # keeps alpha/dt a and visc c apart, since their sum rounds visc's
            # low bits away
            shift, shift_alpha = alpha / dt * np.eye(r) + visc_modes, alpha
        hist = (2.0 * a - 0.5 * a_prev) / dt if bdf2 else a / dt
        a_new = a.copy()
        converged = False
        for it in range(newton_max_iter + 1):
            c = ops.extend(a_new)
            res = alpha / dt * a_new - hist + ops.quadratic(c) + ops.visc @ c
            res_norm = np.linalg.norm(res)
            if not np.isfinite(res_norm):
                break
            if res_norm <= newton_tol:
                converged = True
                break
            if it == newton_max_iter:
                break
            jac = shift + ops.quadratic_jacobian(c)
            try:
                a_new = a_new + np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                break
        if not converged:
            raise RomNewtonError(
                f"reduced Newton diverged at step {n + 1} (t={(n + 1) * dt:g}); "
                "this is the expected failure mode of inconsistent shear-layer ROMs",
                step=n + 1,
            )
        a_prev = a
        a = a_new
        coeffs[n + 1] = a
        newton_iters[n + 1] = it
    return RomTrajectory(coeffs=coeffs, times=dt * np.arange(n_steps + 1), newton_iters=newton_iters)


def reconstruct_field(basis, a):
    """Full velocity coefficients of the reduced state: ubar + sum a_j psi_j."""
    a = np.asarray(a, dtype=float)
    return basis.fields(a.size) @ basis.extend(a)
