"""Reduced operators and online Galerkin-ROM time integration.

The reduced state u = ubar + sum_j a_j psi_j is written on the affine field
set X = [ubar, psi_1..psi_r] (``PodBasis.fields``; ubar only for a centered
basis) with state coefficients c = [1, a] (``pod.extend``).  X has
m = o + r columns, o = 1 when centered and 0 otherwise, and projecting the
momentum equation onto the modes gives the r x m x m tensor and r x m
viscous matrix

    T[i][j][k] = b(X_j, X_k, psi_i),    V[i][j] = nu (grad X_j, grad psi_i),

so the reduced residual is N(c) + V c with N(c)_i = sum_jk T[i,j,k] c_j c_k.
A centered ROM's mean couplings and constant are the entries with j or k = 0.

Offline, one form-free :class:`RomProjection` of the field set serves every
form and every r: the convective cube C[i, j, k] = b_conv(X_j, X_k, X_i),
the divergence cube D[i, j, k] = ((div X_j) X_k, X_i) and the stiffness,
mass and curl Grams X^T K X, X^T M X and X^T G X.  Pointwise identities of
the form densities make each form's tensor (over all m test fields) a fixed
combination of the cubes:

    convective   C
    skew         C + D / 2
    rotational   C[i, k, j] - C[k, i, j]       ((curl u) x v = (v.grad) u - (grad u)^T v)
    emac         C[i, k, j] + C[k, i, j] + D

and V = nu X^T K X; the mass and curl Grams give the reduced energy and
enstrophy (``diagnostics.rom_energy_enstrophy``).  The modes are nested,
so the operators at r are the test rows o:o+r and fields :o+r of a
projection on more fields; ``flowrom pod`` stores one of its ``[rom] r``
modes, and the online stage only slices it.  The projection is one
element loop over the pair products of the fields, on the test pairs
i >= k only (:func:`project_fields`): the values, weighted divergences
and curls of all m fields are tabulated once, a few fields at a time
(:func:`_tabulate`), and each field k then evaluates its own gradients,
weights them, and costs the products X_i . X_k and (grad X_k)^T X_i w
with the n = m - k fields i >= k and two matrix products, (n x P)(P x m)
for D and (n x 2P)(2P x m) for C, with P = elements x quadrature points.
No table of every field's gradients or weighted values exists, so the
projection's memory is the values and weighted divergences that those
products read, one pair buffer and the cubes: about 5 m P + 2 m^3
floats.  D is mirrored, and C's other half follows exactly from
integration by parts against a boundary-flux cube, whose field values
come from the same evaluation on the space's edge table
(``TaylorHoodSpace.edge_table``, fem's one boundary-edge rule), so the
cubes cost about 1.5 m^3 P multiply-adds: linear in the mesh, cubic in
the modes.

On a problem with a drag boundary the projected field set ends with the
drag lifting v_d (``fom.drag_lifting``), which is no mode: every leading
slice is as without it, and its test row v gives the drag of a reduced
state without forming a field (:meth:`RomProjection.drag`).  With
u = X c and n = o + r, the force of ``fom.step_drag`` is

    v_d . R = (X^T M X)[v, :n] . (alpha c - c_hat) / dt + F(c) + w F(c_old),
    F(c)    = nu (X^T K X)[v, :n] . c + c^T T_v c,    T_v = T[v, :n, :n],

with T the tensor of the FOM's form over all fields and alpha, c_hat and
w the scheme's (``numerics.implicit_step``) on the state coefficients.
The cubes hold v_d as an advecting field too, which the rotational and
EMAC combinations read, and the boundary flux covers a field that does
not vanish on the boundary, so this is the FOM's drag to roundoff.

Online, each implicit step solves the r-dimensional system by Newton with
the analytic Jacobian of the quadratic term and one dense LU solve per
update (LAPACK gesv), stepping the full-order scheme itself
(``numerics.implicit_step``: BDF2 starts with one theta = 2/3 step, whose
load also carries half of V c^0 + N(c^0), and each step's Newton starts
from the extrapolated 2 a^n - a^(n-1), the first from a^0).  The time
coefficient alpha, and with it the Jacobian's linear part, is the same
on every step of a run.  :class:`RomOperators` forms the
(j, k)-symmetrized tensor S = T + T^{jk} once.  Each evaluated iterate
costs one matrix-vector product g = S c (S viewed as an (r*m) x m
matrix), the state derivative dN/dc, which gives both the quadratic term
N(c) = g c / 2 and its Jacobian dN/da = g[:, o:], so an iterate costs
O(r m^2), independent of the finite element dimension.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .fem import NonlinearForm
from .fom import DRAG_SCALE
from .numerics import NEWTON_MAX_ITER, NEWTON_TOL, NewtonConvergenceError, implicit_step, step_count
from .pod import extend


@dataclass
class RomOperators:
    """Reduced operators of one nonlinear form at one mode count, on X = [ubar, psi].

    ``visc`` is (r, m) and ``tensor`` (r, m, m), with m = r + 1 for a
    centered basis (column 0 is the mean) and m = r otherwise; methods take
    state coefficients c = [1, a] (``pod.extend``).  The reduced mass is the
    identity (orthonormal modes) and is never stored.  The symmetrized
    tensor is formed at construction, after which ``tensor`` is read-only.
    """

    visc: np.ndarray            # (r, m)    nu (grad X_j, grad psi_i)
    tensor: np.ndarray          # (r, m, m) T[i, j, k] = b(X_j, X_k, psi_i)
    _sym: np.ndarray = field(init=False, repr=False)   # (r, m, m) S = T + T^{jk}

    def __post_init__(self):
        self.tensor.setflags(write=False)
        self._sym = self.tensor + self.tensor.transpose(0, 2, 1)

    @property
    def r(self):
        return self.tensor.shape[0]

    def quadratic_jacobian(self, c):
        """g = S c, the (r, m) state derivative g[i, j] = dN_i/dc_j = sum_k (T[i, j, k] + T[i, k, j]) c_k.

        One contraction of the symmetrized tensor: N(c) = g c / 2, and the
        Jacobian with respect to the mode coefficients is dN/da = g[:, o:],
        o = m - r.
        """
        r, m = self._sym.shape[:2]
        return (self._sym.reshape(r * m, m) @ c).reshape(r, m)


@dataclass
class RomTrajectory:
    """Reduced coefficient vectors per step (row n is a^n).

    ``newton_iters[n]`` counts the Newton updates of the step ending at
    ``times[n]`` (0 for the initial state), one fewer than the iterates it
    evaluates; it is None for a trajectory read back from a CSV.
    """

    coeffs: np.ndarray  # (nsteps + 1, r)
    times: np.ndarray
    newton_iters: np.ndarray = None

    def __post_init__(self):
        if self.coeffs.shape[0] != self.times.size:
            raise ValueError("trajectory length does not match times")


@dataclass
class RomProjection:
    """Form-free projection of a field set X with m columns (``PodBasis.fields``).

    Every form's reduced tensor is a fixed combination of the two cubes
    (:data:`_COMBINATIONS`), and a leading slice of X is the field set of a
    smaller r, so one projection serves every form and every
    r <= m - o - ``liftings``: the last ``liftings`` fields are no modes,
    and the first of them is the drag lifting v_d (:meth:`drag`).
    The Grams are exactly symmetric, and so is D in (i, k).
    """

    conv: np.ndarray        # (m, m, m) C[i, j, k] = b_conv(X_j, X_k, X_i)
    div: np.ndarray         # (m, m, m) D[i, j, k] = ((div X_j) X_k, X_i)
    gram: np.ndarray        # (m, m)    (grad X_j, grad X_i)
    mass_gram: np.ndarray   # (m, m)    (X_j, X_i)
    curl_gram: np.ndarray   # (m, m)    (curl X_j, curl X_i)
    liftings: int = 0       # the last fields, which are no modes

    @property
    def m(self):
        return self.gram.shape[0]

    def operators(self, form, nu, o, r):
        """:class:`RomOperators` of ``form`` on the leading o + r fields (test rows o:o+r)."""
        n = o + r
        self._check_fields(n)
        combine = _COMBINATIONS[NonlinearForm.parse(form)]
        tensor = combine(self.conv[:n, :n, :n], self.div[:n, :n, :n])[o:]
        return RomOperators(visc=nu * self.gram[o:n, :n], tensor=np.array(tensor, order="C"))

    def drag(self, config, o, coeffs):
        """``fom.step_drag`` of every step of the trajectory ``coeffs`` (a^n per row), NaN at row 0.

        ``config`` is the ``fom.FomConfig`` whose snapshots were projected:
        the drag uses its form, nu, dt and scheme, as the FOM's does.  Each
        step's force v_d . R is the module docstring's sum over the test row
        v of v_d, the first field after the modes, and the leading n = o + r
        fields; no field is formed, and a step costs O(n^2).
        """
        if not self.liftings:
            raise ValueError("the projection holds no drag lifting")
        c = extend(coeffs, o)
        n, v = c.shape[1], self.m - self.liftings
        self._check_fields(n)
        tensor = _COMBINATIONS[NonlinearForm.parse(config.form)](self.conv, self.div)[v, :n, :n]
        force = config.nu * (c @ self.gram[v, :n]) + np.einsum("sj,jk,sk->s", c, tensor, c)
        drag = np.full(len(c), np.nan)
        for s in range(1, len(c)):
            alpha, hist, _, weight = implicit_step(config.scheme, c[s - 1], c[s - 2] if s > 1 else None)
            rate = self.mass_gram[v, :n] @ (alpha * c[s] - hist) / config.dt
            drag[s] = -DRAG_SCALE * (rate + force[s] + weight * force[s - 1]) / (1.0 + weight)
        return drag

    def _check_fields(self, n):
        """Refuse n leading fields that run past the modes into the liftings or past the end."""
        if n > self.m - self.liftings:
            raise ValueError(f"projection holds {self.m - self.liftings} fields, {n} requested")


# each form's T[i, j, k] from the cubes (the table of the module docstring):
# c.transpose(0, 2, 1)[i, j, k] = C[i, k, j] and c.transpose(1, 2, 0)[i, j, k] = C[k, i, j]
_COMBINATIONS = {
    NonlinearForm.CONVECTIVE: lambda c, d: c,
    NonlinearForm.SKEW: lambda c, d: c + 0.5 * d,
    NonlinearForm.ROTATIONAL: lambda c, d: c.transpose(0, 2, 1) - c.transpose(1, 2, 0),
    NonlinearForm.EMAC: lambda c, d: c.transpose(0, 2, 1) + c.transpose(1, 2, 0) + d,
}


# fields per evaluation in project_fields: it bounds the evaluation's
# temporaries and does not change a bit of the products
_FIELD_BLOCK = 4


def _boundary_flux(space, fields):
    """Values X (2, m, b) and weighted normal fluxes (X . n) w (m, b) at the b boundary points.

    ``fields`` is (m, n_vel); the points are those of ``space.edge_table()``,
    fem's boundary-edge rule on every edge of ``mesh.boundary_edges``.
    """
    edges = space.edge_table()
    vals, _ = space.values_and_grads(fields, at=edges)   # (2, m, ne, nq)
    flux = (vals[0] * edges.normals[:, 0, None] + vals[1] * edges.normals[:, 1, None]) * edges.weights
    # a copy of the values, so that the edge gradients are freed
    return vals.reshape(2, fields.shape[0], -1).copy(), flux.reshape(fields.shape[0], -1)


def _tabulate(space, fields):
    """Per field, at the P quadrature points: values, weighted divergence, curl.

    Returns (m, 2, P), (m, P) and (m, P) arrays.  The fields are evaluated
    in blocks of :data:`_FIELD_BLOCK`, so no table of all m fields'
    gradients exists.
    """
    m, size = fields.shape[1], space.wdet.size
    vals = np.empty((m, 2, size))
    div, curl = np.empty((m, size)), np.empty((m, size))
    for a in range(0, m, _FIELD_BLOCK):
        v, g = space.values_and_grads(fields[:, a:a + _FIELD_BLOCK].T)   # (2, b, e, q), (2, 2, b, e, q)
        b = v.shape[1]
        vals[a:a + b] = v.reshape(2, b, -1).transpose(1, 0, 2)
        div[a:a + b] = ((g[0, 0] + g[1, 1]) * space.wdet).reshape(b, -1)
        curl[a:a + b] = (g[1, 0] - g[0, 1]).reshape(b, -1)
    return vals, div, curl


def project_fields(space, fields, liftings=0):
    """The :class:`RomProjection` of the columns X of ``fields``, the last ``liftings`` of which are no modes.

    Both cubes are evaluated on the test pairs i >= k only, each from the
    pair products of the fields: D[i, j, k] = ((div X_j), X_i . X_k) from
    the scalar products X_i . X_k, and C[i, j, k] = (X_j, (grad X_k)^T X_i)
    from the vector products (grad X_k)^T X_i.  D is mirrored, and C's other
    half follows from integration by parts of (X_j . grad)(X_i . X_k),

        C[i, j, k] + C[k, j, i] + D[i, j, k] = B[i, j, k],

    with B the boundary integral of (X_j . n)(X_i . X_k) over every boundary
    edge (:func:`_boundary_flux`).  This holds exactly for any P2 fields,
    whatever their boundary values: the degree-5 rule integrates every
    volume term exactly, and fem's 4-point Gauss edge rule the degree-6
    flux (the periodic sides cancel).  The mass and curl Grams are quadrature sums
    over the fields' values and curls, which the rule integrates exactly
    (degrees 4 and 2), so they are X^T M X and X^T G X without a sparse
    product.

    The fields are read in place (columns of ``fields``) and evaluated in
    blocks of :data:`_FIELD_BLOCK` (:func:`_tabulate`); field k's
    gradients are evaluated again in step k, when its products need them,
    and weighted there, so no table of weighted values exists.  The
    working set is the values and the weighted divergences of all fields
    (3 m P floats), one (m, 2, P) pair-product buffer that serves the D
    product and then the C product, and the two cubes: about
    5 m P + 2 m^3 floats.  The mass Gram's weighted values are a
    temporary, freed before the pair buffer is allocated.  Every output is
    bitwise the same as from one evaluation of all fields at once.
    """
    m = fields.shape[1]
    wdet = space.wdet.reshape(-1)
    stiff = fields.T @ (space.stiffness() @ fields)
    vals, div, curl = _tabulate(space, fields)
    curl = (curl * wdet) @ curl.T   # the curl table goes before the weighted values exist
    flat = vals.reshape(m, -1)      # the values, component-major in each row
    grams = (stiff, (vals * wdet).reshape(m, -1) @ flat.T, curl)
    stiff, mass, curl = (0.5 * (g + g.T) for g in grams)   # the (m, m) Grams, before the cubes' buffers
    bvals, flux = _boundary_flux(space, fields.T)
    conv, dcube = np.empty((2, m, m, m))
    pairs = np.empty((m, 2, div.shape[1]))   # X_i . X_k in [:, 0], then (grad X_k)^T X_i w, i >= k
    for k in range(m):
        n = m - k
        np.einsum("icp,cp->ip", vals[k:], vals[k], out=pairs[:n, 0])
        d = pairs[:n, 0] @ div.T                              # D[i, :, k], i >= k
        _, grad = space.values_and_grads(fields[:, k])        # (2, 2, e, q): d_t X_k^c
        np.einsum("icp,ctp->itp", vals[k:], (grad * space.wdet).reshape(2, 2, -1), out=pairs[:n])
        c = pairs[:n].reshape(n, -1) @ flat.T                 # C[i, :, k], i >= k
        b = np.einsum("cib,cb->ib", bvals[:, k + 1:], bvals[:, k]) @ flux.T   # B[i, :, k], i > k
        dcube[k:, :, k] = d
        dcube[k, :, k:] = d.T
        conv[k:, :, k] = c
        conv[k, :, k + 1:] = (b - d[1:] - c[1:]).T
    return RomProjection(conv=conv, div=dcube, gram=stiff, mass_gram=mass, curl_gram=curl, liftings=liftings)


def assemble_rom_operators(basis, r, form, nu):
    """The momentum operators on the leading ``r`` modes, sliced from ``basis.projection``.

    Every tensor entry equals the full-order value b(X_j, X_k, psi_i) of
    the corresponding field triple.
    """
    return basis.projection.operators(form, nu, int(basis.centered), r)


# a diverging iterate overflows; the residual check reports it as NewtonConvergenceError
@np.errstate(over="ignore", invalid="ignore")
def run_rom(ops, a0, dt, t_end, scheme):
    """Integrate the reduced system implicitly from coefficients ``a0``.

    Steps the FOM's ``scheme``, which has no default (``numerics.step_count``
    and ``implicit_step``), with Newton iteration to the FOM's tolerance
    ``numerics.NEWTON_TOL`` on the r-dimensional residual and dense linear
    solves.  Each evaluated iterate takes one
    :meth:`RomOperators.quadratic_jacobian`; BDF2's first step reads the
    operator at a^0 off its first iterate's, which is a^0.  The
    trajectory records the Newton updates of each step.  A non-finite
    residual, an exactly singular Newton matrix and a step that does not
    converge in ``numerics.NEWTON_MAX_ITER`` updates raise
    ``numerics.NewtonConvergenceError`` with the failing step index and the
    last residual norm.
    """
    n_steps = step_count(dt, t_end)
    r = ops.r
    a = np.array(a0, dtype=float)
    if a.shape != (r,):
        raise ValueError(f"a0 has shape {a.shape}, expected ({r},)")
    o = ops.visc.shape[1] - r
    visc_modes = ops.visc[:, o:]

    coeffs = np.empty((n_steps + 1, r))
    coeffs[0] = a
    newton_iters = np.zeros(n_steps + 1, dtype=int)
    a_prev = None
    for n in range(n_steps):
        alpha, hist, a_new, weight = implicit_step(scheme, a, a_prev)
        if n == 0:
            # alpha is the same on every step, so the Jacobian's linear part is
            # formed once; the residual keeps rate a and visc c apart, since
            # their sum rounds visc's low bits away
            rate = alpha / dt
            shift = rate * np.eye(r) + visc_modes
        load = hist / dt
        failure = None
        for it in range(NEWTON_MAX_ITER + 1):
            c = extend(a_new, o)
            g = ops.quadratic_jacobian(c)   # N(c) = g c / 2, dN/da = g[:, o:]
            quad, visc = 0.5 * (g @ c), ops.visc @ c
            if weight and it == 0:
                # BDF2's first step starts from a^0 itself: this contraction
                # also gives the operator at the old state, V c^0 + N(c^0)
                load = load - weight * (visc + quad)
            res = rate * a_new - load + quad + visc
            res_norm = math.sqrt(res @ res)
            if not math.isfinite(res_norm):
                failure = "non-finite residual"
                break
            if res_norm <= NEWTON_TOL:
                break
            if it == NEWTON_MAX_ITER:
                failure = f"residual {res_norm:.3e} after {it} updates"
                break
            _, _, step, info = lapack.dgesv(shift + g[:, o:], res, overwrite_a=True)
            if info > 0:
                failure = "exactly singular Newton matrix"
                break
            a_new = a_new - step
        if failure is not None:
            raise NewtonConvergenceError(
                f"reduced Newton diverged at step {n + 1} (t={(n + 1) * dt:g}): {failure}; "
                "this is the expected failure mode of inconsistent shear-layer ROMs",
                step=n + 1,
                residual=res_norm,
            )
        a_prev = a
        a = a_new
        coeffs[n + 1] = a
        newton_iters[n + 1] = it
    return RomTrajectory(coeffs=coeffs, times=dt * np.arange(n_steps + 1), newton_iters=newton_iters)


def reconstruct_field(basis, a):
    """Full velocity coefficients of the reduced state: ubar + sum a_j psi_j."""
    a = np.asarray(a, dtype=float)
    u = basis.modes[:, :a.size] @ a
    return basis.mean + u if basis.centered else u
