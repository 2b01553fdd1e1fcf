"""Reduced operators and online Galerkin-ROM time integration.

Offline, the mode triples are pushed through the same pointwise form
densities as the full-order assembly, producing the r x r x r tensor

    T[i][j][k] = b(psi_j, psi_k, psi_i)

plus the viscous matrix, and (with a centered basis) the mean-coupling
matrices and constant vector from expanding b(ubar + w, ubar + w, psi_i).
The element loop runs once: mode values and gradients are tabulated at all
quadrature points up front and each transported mode k costs one dense
matrix product, so assembly is O(r^2 (r + elements)) rather than
O(r^3 elements).

Online, each implicit step solves the r-dimensional system by Newton with
the analytic Jacobian of the quadratic term and a dense factorization,
mirroring the full-order scheme (BDF2 starts with one backward-Euler step).
The step cost is independent of the finite element dimension.
"""

from dataclasses import dataclass

import numpy as np

from .fem import NonlinearForm, _density


class RomNewtonError(RuntimeError):
    """Online Newton diverged; inconsistent ROMs are expected to trip this."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class RomOperators:
    """Reduced operators of one nonlinear form at one mode count.

    The reduced mass is the identity (orthonormal modes) and is never
    stored.  With centering off, ``lin_mean_adv``/``lin_adv_mean`` are zero
    and ``const`` is zero.
    """

    r: int
    form: NonlinearForm
    nu: float
    visc: np.ndarray            # (r, r)   nu (grad psi_j, grad psi_i)
    tensor: np.ndarray          # (r, r, r) T[i, j, k] = b(psi_j, psi_k, psi_i)
    lin_mean_adv: np.ndarray    # (r, r)   b(ubar, psi_j, psi_i)
    lin_adv_mean: np.ndarray    # (r, r)   b(psi_j, ubar, psi_i)
    const: np.ndarray           # (r,)     b(ubar, ubar, psi_i) + nu (grad ubar, grad psi_i)
    centered: bool = False

    def quadratic(self, a):
        """N(a)_i = sum_jk T[i, j, k] a_j a_k."""
        return np.einsum("ijk,j,k->i", self.tensor, a, a)

    def quadratic_jacobian(self, a):
        return np.einsum("ijk,k->ij", self.tensor, a) + np.einsum("ikj,k->ij", self.tensor, a)


@dataclass
class RomTrajectory:
    """Reduced coefficient vectors per step (row n is a^n)."""

    coeffs: np.ndarray  # (nsteps + 1, r)
    times: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape[0] != self.times.size:
            raise ValueError("trajectory length does not match times")


def _mode_tables(space, fields):
    """Values/gradients of a stack of fields at all quadrature points.

    Returns ``vals`` (m, nelem, nq, 2) and ``grads`` (m, nelem, nq, 2, 2).
    """
    coeffs = np.stack([space.local_coeffs(f) for f in fields])      # (m, e, 6, 2)
    vals = np.einsum("meli,ql->meqi", coeffs, space.phi)
    grads = np.einsum("meli,eqld->meqid", coeffs, space.dphi)
    return vals, grads


def _trilinear_tensor(space, form, fields):
    """Dense tensor T[i, j, k] = b(field_j, field_k, field_i)."""
    vals, grads = _mode_tables(space, fields)
    m = vals.shape[0]
    wdet = space.qweights[None, :] * space.det_j[:, None]           # (e, q)
    tested = (vals * wdet[None, :, :, None]).reshape(m, -1)         # (m, e*q*2)
    tensor = np.empty((m, m, m))
    for k in range(m):
        s = _density(form, vals, grads, vals[k], grads[k])          # (m, e, q, 2)
        tensor[:, :, k] = tested @ s.reshape(m, -1).T
    return tensor


def assemble_rom_operators(space, basis, r, form, nu):
    """Project the momentum operators onto the leading ``r`` modes.

    Every tensor entry equals the full-order ``trilinear_value`` of the
    corresponding mode triple.
    """
    form = NonlinearForm.parse(form)
    if r > basis.rank:
        raise ValueError(f"requested r={r} exceeds basis rank {basis.rank}")
    modes = [basis.modes[:, i] for i in range(r)]
    stiff = space.stiffness()

    if basis.centered:
        fields = [basis.mean] + modes
        t_ext = _trilinear_tensor(space, form, fields)
        tensor = t_ext[1:, 1:, 1:]
        lin_mean_adv = t_ext[1:, 0, 1:]   # b(ubar, psi_j, psi_i)
        lin_adv_mean = t_ext[1:, 1:, 0]   # b(psi_j, ubar, psi_i)
        const_b = t_ext[1:, 0, 0]
        kbar = stiff @ basis.mean
        const = const_b + nu * np.array([m @ kbar for m in modes])
    else:
        tensor = _trilinear_tensor(space, form, modes)
        lin_mean_adv = np.zeros((r, r))
        lin_adv_mean = np.zeros((r, r))
        const = np.zeros(r)

    mode_mat = basis.modes[:, :r]
    visc = nu * (mode_mat.T @ (stiff @ mode_mat))
    visc = 0.5 * (visc + visc.T)
    return RomOperators(
        r=r, form=form, nu=nu, visc=visc, tensor=tensor,
        lin_mean_adv=lin_mean_adv, lin_adv_mean=lin_adv_mean,
        const=const, centered=basis.centered,
    )


def run_rom(ops, a0, dt, t_end, scheme="backward_euler",
            newton_tol=1e-10, newton_max_iter=20):
    """Integrate the reduced system implicitly from coefficients ``a0``.

    Mirrors the full-order stepping: backward Euler or BDF2 (with a
    backward-Euler first step), Newton iteration to ``newton_tol`` on the
    r-dimensional residual, dense linear solves.  Raises
    :class:`RomNewtonError` with the failing step index on divergence.
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
    lin = ops.visc + ops.lin_mean_adv + ops.lin_adv_mean

    coeffs = np.empty((n_steps + 1, r))
    coeffs[0] = a
    a_prev = None
    for n in range(n_steps):
        bdf2 = scheme == "bdf2" and a_prev is not None
        alpha = 1.5 if bdf2 else 1.0
        hist = (2.0 * a - 0.5 * a_prev) / dt if bdf2 else a / dt
        a_new = a.copy()
        converged = False
        for it in range(newton_max_iter + 1):
            res = alpha / dt * a_new - hist + ops.quadratic(a_new) + lin @ a_new + ops.const
            res_norm = np.linalg.norm(res)
            if not np.isfinite(res_norm):
                break
            if res_norm <= newton_tol:
                converged = True
                break
            if it == newton_max_iter:
                break
            jac = alpha / dt * np.eye(r) + ops.quadratic_jacobian(a_new) + lin
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
    return RomTrajectory(coeffs=coeffs, times=dt * np.arange(n_steps + 1))


def reconstruct_field(basis, a):
    """Full velocity coefficients of the reduced state: ubar + sum a_j psi_j."""
    a = np.asarray(a, dtype=float)
    r = a.size
    if r > basis.rank:
        raise ValueError(f"coefficient vector longer than basis rank {basis.rank}")
    return basis.mean_or_zero() + basis.modes[:, :r] @ a
