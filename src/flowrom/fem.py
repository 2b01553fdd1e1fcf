"""Taylor-Hood (P2/P1) spaces, operator assembly, and the four nonlinear forms.

Velocity fields are flat coefficient arrays over velocity DOFs, pressure
fields over pressure DOFs.  The scalar P2 nodes are the mesh vertices
followed by the edge midpoints; after periodic merging the velocity DOF of
merged scalar node ``s`` and component ``c`` is ``2*s + c``.  Pressure DOFs
are the merged vertices.

The convective term can be discretized four ways.  With ``u`` advecting,
``v`` transported, and ``w`` the test field, the generalized trilinear forms
are

* convective:      (u . grad v, w)
* skew-symmetric:  (u . grad v, w) + 1/2 ((div u) v, w)
* rotational:      ((curl u) x v, w), with the 2D reading
                   curl u = dx u2 - dy u1 and (curl u) x v = omega (-v2, v1)
* emac:            ((grad u + grad u^T) v, w) + ((div u) v, w)

all of which reduce to the standard single-field forms at v = u.  A single
degree-5 rule makes every one of these integrals exact for P2 arguments on
affine elements, which is what turns the classical energy identities
(b_s(u,v,v) = 0 and friends) into machine-precision statements.

Every form has the pointwise density s = (a . grad) v + L v, whose factors
depend on ``u`` alone (:func:`_transport`):

* convective:  a = u, L = 0
* skew:        a = u, L = 1/2 (div u) I
* rotational:  no a,  L = [[0, -omega], [omega, 0]] with omega = curl u
* emac:        no a,  L = 2 sym(grad u) + (div u) I

:func:`_density` applies them to ``v``.  The full-order residual and
Jacobian, :func:`trilinear_value` and the reduced tensor all go through this
pair.  Quadrature tables are component-major: values have shape
(2, ..., nt, nq) and gradients (2, 2, ..., nt, nq), so the density is
explicit arithmetic on contiguous (..., nt, nq) blocks.

Every integral reads one per-element basis table, ``space.tables`` (value
and physical gradients of each local P2 basis function at each quadrature
point), and one weight array, ``space.wdet`` (quadrature weight times
det J).  Every assembled matrix goes through one scatter, :func:`_scatter`,
from element blocks to a CSR matrix.
"""

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .numerics import triangle_quadrature


class NonlinearForm(str, enum.Enum):
    """Tag selecting the discretization of the convective term."""

    CONVECTIVE = "convective"
    SKEW = "skew"
    ROTATIONAL = "rotational"
    EMAC = "emac"

    @classmethod
    def parse(cls, name):
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown nonlinear form {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class FieldNorms:
    l2: float
    h1_semi: float
    div_l2: float
    curl_l2: float


def _p2_basis(bary):
    """P2 basis values at barycentric points: (nq, 6)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ])


def _p2_ref_grads(bary):
    """P2 reference gradients at barycentric points: (nq, 6, 2)."""
    nq = bary.shape[0]
    # gradients of barycentric coordinates on the reference triangle
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    out = np.zeros((nq, 6, 2))
    for q in range(nq):
        l = bary[q]
        for i in range(3):
            out[q, i] = (4 * l[i] - 1) * gl[i]
        out[q, 3] = 4 * (l[1] * gl[2] + l[2] * gl[1])
        out[q, 4] = 4 * (l[2] * gl[0] + l[0] * gl[2])
        out[q, 5] = 4 * (l[0] * gl[1] + l[1] * gl[0])
    return out


def _resolve_roots(master):
    """Collapse master chains (slave of a slave) to their final root."""
    master = master.copy()
    while True:
        nxt = master[master]
        if np.array_equal(nxt, master):
            return master
        master = nxt


def _scatter(local, rows, cols, shape):
    """Sum element matrices ``local`` (nt, a, b) into a CSR matrix of ``shape``.

    ``rows`` (nt, a) and ``cols`` (nt, b) are the global indices of each
    element's local rows and columns; duplicates add up.
    """
    rows = np.broadcast_to(rows[:, :, None], local.shape)
    cols = np.broadcast_to(cols[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


class TaylorHoodSpace:
    """P2 vector velocity / P1 pressure degree-of-freedom layout on a mesh.

    Periodic vertex pairs of the mesh are folded: slave P2 nodes (vertices
    and midpoints of slave edges) share the DOF of their master, both for
    velocity and pressure.  One pressure DOF (index 0) is pinned during
    solves since neither experiment carries an essential pressure condition.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nv = mesh.num_vertices
        tris = mesh.triangles

        # global edges as sorted vertex pairs; local edge i is opposite vertex i
        local = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=1)
        keys = np.sort(local.reshape(-1, 2), axis=1)
        edges, inverse = np.unique(keys, axis=0, return_inverse=True)
        self.edges = edges
        self.cell_edges = inverse.reshape(-1, 3)
        ne = edges.shape[0]

        self.n_vertices = nv
        self.n_edges = ne

        # periodic folding: vertices from the mesh pairs, midpoints through
        # the induced edge identification
        vroot = np.arange(nv)
        for m, s in mesh.periodic_pairs:
            vroot[s] = m
        vroot = _resolve_roots(vroot)
        # edges whose endpoint roots coincide are translated copies of one
        # another across a periodic seam; the first such edge is the master
        canonical = {}
        eroot = np.arange(ne)
        for i, (a, b) in enumerate(edges):
            ra, rb = int(vroot[a]), int(vroot[b])
            key = (min(ra, rb), max(ra, rb))
            eroot[i] = canonical.setdefault(key, i)
        eroot = _resolve_roots(eroot)

        scalar_root = np.concatenate([vroot, nv + eroot])
        scalar_root = _resolve_roots(scalar_root)
        roots = np.unique(scalar_root)
        self.scalar_index = np.searchsorted(roots, scalar_root)
        self.n_scalar = roots.size
        self.n_vel = 2 * self.n_scalar

        proots = np.unique(vroot)
        self.pressure_index = np.searchsorted(proots, vroot)
        self.n_press = proots.size
        self.pinned_pressure = 0

        # representative coordinates of merged nodes (master's position)
        raw_xy = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
        self.scalar_xy = raw_xy[roots]

        # connectivity in merged numbering
        raw_cell_scalar = np.hstack([tris, nv + self.cell_edges])
        self.cell_scalar = self.scalar_index[raw_cell_scalar]          # (nt, 6)
        self.cell_press = self.pressure_index[tris]                    # (nt, 3)
        cv = np.empty((tris.shape[0], 12), dtype=int)
        cv[:, 0::2] = 2 * self.cell_scalar
        cv[:, 1::2] = 2 * self.cell_scalar + 1
        self.cell_vel = cv

        # affine geometry and basis tables at the shared quadrature rule
        p = mesh.vertices
        j11 = p[tris[:, 1], 0] - p[tris[:, 0], 0]
        j12 = p[tris[:, 2], 0] - p[tris[:, 0], 0]
        j21 = p[tris[:, 1], 1] - p[tris[:, 0], 1]
        j22 = p[tris[:, 2], 1] - p[tris[:, 0], 1]
        det = j11 * j22 - j12 * j21
        if np.any(det <= 0):
            raise ValueError("mesh has non-CCW or degenerate triangles")
        inv_jt = np.empty((tris.shape[0], 2, 2))
        inv_jt[:, 0, 0] = j22 / det
        inv_jt[:, 0, 1] = -j21 / det
        inv_jt[:, 1, 0] = -j12 / det
        inv_jt[:, 1, 1] = j11 / det
        self.inv_jt = inv_jt

        self.quadrature = triangle_quadrature()
        bary = self.quadrature.points
        self.phi = _p2_basis(bary)                       # (nq, 6)
        # tables[e, l, k, q]: value (k = 0), d/dx (1) and d/dy (2) of local basis l,
        # the physical gradients being d_d phi_l = sum_k invJT[e, d, k] ref[q, l, k]
        tables = np.empty((tris.shape[0], 6, 3, self.phi.shape[0]))
        tables[:, :, 0, :] = self.phi.T
        tables[:, :, 1:, :] = np.einsum("edk,qlk->eldq", inv_jt, _p2_ref_grads(bary))
        self.tables = tables
        self.wdet = det[:, None] * self.quadrature.weights[None, :]   # (nt, nq) quadrature weights
        v0 = p[tris[:, 0]]
        jmat = np.stack([np.stack([j11, j12], axis=-1), np.stack([j21, j22], axis=-1)], axis=1)
        self.qp_xy = v0[:, None, :] + np.einsum("eij,qj->eqi", jmat, bary[:, 1:])

        self._cache = {}

    # ------------------------------------------------------------------
    # assembled operators (cached, unscaled)

    def _gradients(self):
        """Physical basis gradients from the tables, as a contiguous (e, q, l, d) array."""
        return np.ascontiguousarray(self.tables[:, :, 1:].transpose(0, 3, 1, 2))

    def mass(self):
        """Vector mass matrix (u, v)."""
        if "mass" not in self._cache:
            elem = np.einsum("eq,qa,qb->eab", self.wdet, self.phi, self.phi)
            m = _scatter(elem, self.cell_scalar, self.cell_scalar, (self.n_scalar,) * 2)
            m = 0.5 * (m + m.T)
            self._cache["mass"] = sp.kron(m, sp.eye(2), format="csr")
        return self._cache["mass"]

    def stiffness(self):
        """Vector stiffness matrix (grad u, grad v), unscaled by viscosity."""
        if "stiffness" not in self._cache:
            g = self._gradients()
            elem = np.einsum("eq,eqad,eqbd->eab", self.wdet, g, g)
            m = _scatter(elem, self.cell_scalar, self.cell_scalar, (self.n_scalar,) * 2)
            m = 0.5 * (m + m.T)
            self._cache["stiffness"] = sp.kron(m, sp.eye(2), format="csr")
        return self._cache["stiffness"]

    def divergence(self):
        """Divergence operator B with (B u)_q = (div u, psi_q), psi the P1 (barycentric) basis."""
        if "divergence" not in self._cache:
            elem = np.einsum("eq,qp,eqlc->eplc", self.wdet, self.quadrature.points, self._gradients())
            self._cache["divergence"] = _scatter(elem.reshape(-1, 3, 12), self.cell_press, self.cell_vel,
                                                 (self.n_press, self.n_vel))
        return self._cache["divergence"]

    def _paired_form(self, coef):
        """Symmetric velocity operator of the integrand sum_q (coef_a . u)(coef_b . v)."""
        elem = np.einsum("eq,eqla,eqmb->elamb", self.wdet, coef, coef)
        m = _scatter(elem.reshape(-1, 12, 12), self.cell_vel, self.cell_vel, (self.n_vel,) * 2)
        return 0.5 * (m + m.T)

    def div_form(self):
        """Operator for ||div u||^2 = u^T G u."""
        if "div_form" not in self._cache:
            # divergence coefficient of local dof (l, c) is d_c phi_l
            self._cache["div_form"] = self._paired_form(self._gradients())
        return self._cache["div_form"]

    def curl_form(self):
        """Operator for ||curl u||^2 = u^T G u (scalar 2D curl)."""
        if "curl_form" not in self._cache:
            g = self._gradients()
            coef = np.empty_like(g)
            coef[..., 0] = -g[..., 1]   # component u1 contributes -dy phi
            coef[..., 1] = g[..., 0]    # component u2 contributes +dx phi
            self._cache["curl_form"] = self._paired_form(coef)
        return self._cache["curl_form"]

    def pressure_volume(self):
        """Vector of integrals of the pressure basis functions."""
        if "pressure_volume" not in self._cache:
            elem = np.einsum("eq,qp->ep", self.wdet, self.quadrature.points)
            v = np.zeros(self.n_press)
            np.add.at(v, self.cell_press, elem)
            self._cache["pressure_volume"] = v
        return self._cache["pressure_volume"]

    def saddle_order(self):
        """Fill-reducing order of the ``[u, p]`` saddle-point unknowns.

        Minimum degree on the P2 node graph, whose pattern is that of the
        SPD scalar mass matrix (SuperLU's MMD on A^T + A, no pivoting).
        Each node expands to its ``u_x`` and ``u_y`` DOFs, followed on a
        vertex by its pressure DOF; a pressure couples only to the P2
        neighbours of its vertex, so the compressed graph loses no edge.
        Ordering the saddle-point matrix itself instead lets its zero
        pressure diagonal force off-diagonal pivots.  Returns the index
        array ``order`` with ``m[order][:, order]`` the reordered matrix.
        """
        if "saddle_order" not in self._cache:
            scalar_mass = sp.csc_matrix(self.mass()[0::2, 0::2])
            mmd = spla.splu(scalar_mass, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
            rank = mmd.perm_c  # rank[s]: position of scalar node s in the elimination
            key = np.empty(self.n_vel + self.n_press, dtype=np.int64)
            key[0 : self.n_vel : 2] = 3 * rank
            key[1 : self.n_vel : 2] = 3 * rank + 1
            key[self.n_vel + self.pressure_index] = 3 * rank[self.scalar_index[: self.n_vertices]] + 2
            self._cache["saddle_order"] = np.argsort(key)
        return self._cache["saddle_order"]

    # ------------------------------------------------------------------
    # field evaluation

    def values_and_grads(self, u):
        """Component-major velocity values and gradients at the quadrature points.

        ``u`` is one field (n_vel,) or a stack (m, n_vel).  Returns values
        (2, [m,] nt, nq) and gradients (2, 2, [m,] nt, nq), with
        ``grads[i, j]`` = du_i/dx_j, from one contraction with the basis
        tables.
        """
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (self.n_vel,) or u.ndim > 2:
            raise ValueError(f"velocity field has shape {u.shape}, expected ([m,] {self.n_vel})")
        nt, _, _, nq = self.tables.shape
        m = u.size // self.n_vel
        # per element, the (2m x 6) coefficients, rows (component, field), times
        # the (6 x 3nq) basis table
        coeffs = u.reshape(m, self.n_scalar, 2)[:, self.cell_scalar].transpose(1, 3, 0, 2)
        out = np.matmul(coeffs.reshape(nt, 2 * m, 6), self.tables.reshape(nt, 6, 3 * nq))
        out = np.ascontiguousarray(out.reshape(nt, 2, m, 3, nq).transpose(1, 3, 2, 0, 4))
        out = out.reshape((2, 3) + u.shape[:-1] + (nt, nq))
        return out[:, 0], out[:, 1:]

    def interpolate_velocity(self, fn, time=0.0):
        """Nodal interpolation of ``fn(x, y, t) -> (u1, u2)`` onto the P2 nodes."""
        x, y = self.scalar_xy[:, 0], self.scalar_xy[:, 1]
        u1, u2 = fn(x, y, time)
        u = np.empty(self.n_vel)
        u[0::2] = u1
        u[1::2] = u2
        return u

    def _check_velocity(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_vel,):
            raise ValueError(f"velocity field has shape {u.shape}, expected ({self.n_vel},)")
        return u

    # ------------------------------------------------------------------
    # essential constraints

    def _edge_lookup(self):
        if "edge_lookup" not in self._cache:
            self._cache["edge_lookup"] = {(int(a), int(b)): i for i, (a, b) in enumerate(self.edges)}
        return self._cache["edge_lookup"]

    def boundary_scalar_nodes(self, label):
        """Merged scalar node ids (vertices + midpoints) on edges labeled ``label``."""
        key = ("boundary_nodes", label)
        if key in self._cache:
            return self._cache[key]
        idx = self.mesh.boundary_edges_with_label(label)
        if idx.size == 0:
            raise ValueError(f"mesh has no boundary edges labeled {label!r}")
        lookup = self._edge_lookup()
        nodes = set()
        for a, b in self.mesh.boundary_edges[idx]:
            nodes.add(int(self.scalar_index[a]))
            nodes.add(int(self.scalar_index[b]))
            nodes.add(int(self.scalar_index[self.n_vertices + lookup[(min(a, b), max(a, b))]]))
        out = np.array(sorted(nodes), dtype=int)
        self._cache[key] = out
        return out

    def dirichlet_data(self, boundary_values, time=0.0):
        """Evaluate a boundary spec into an essential mask and value vector.

        ``boundary_values`` maps labels to conditions:

        * ``("noslip",)``                    -- both components zero
        * ``("velocity", fn_or_pair)``       -- both components prescribed
        * ``("component", c, fn_or_value)``  -- single component prescribed

        Callables receive ``(x, y, t)`` arrays.  Labels missing from the mesh
        raise ``ValueError``.
        """
        mask = np.zeros(self.n_vel, dtype=bool)
        vals = np.zeros(self.n_vel)
        for label, cond in boundary_values.items():
            nodes = self.boundary_scalar_nodes(label)
            x, y = self.scalar_xy[nodes, 0], self.scalar_xy[nodes, 1]
            kind = cond[0]
            if kind == "noslip":
                comps = ((0, 0.0), (1, 0.0))
            elif kind == "velocity":
                val = cond[1]
                u1, u2 = val(x, y, time) if callable(val) else val
                comps = ((0, u1), (1, u2))
            elif kind == "component":
                c, val = cond[1], cond[2]
                comps = ((c, val(x, y, time) if callable(val) else val),)
            else:
                raise ValueError(f"unknown boundary condition kind {kind!r} for label {label!r}")
            for c, val in comps:
                dofs = 2 * nodes + c
                mask[dofs] = True
                vals[dofs] = val
        return mask, vals


def assemble_linear_operators(mesh, space, nu):
    """Mass, viscous stiffness (scaled by ``nu``) and divergence operators."""
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    return space.mass(), nu * space.stiffness(), space.divergence()


def field_norms(space, u):
    """L2, H1-seminorm, divergence and curl norms of a velocity field."""
    u = space._check_velocity(u)
    l2sq = u @ (space.mass() @ u)
    h1sq = u @ (space.stiffness() @ u)
    divsq = u @ (space.div_form() @ u)
    curlsq = u @ (space.curl_form() @ u)
    clip = lambda v: float(np.sqrt(max(v, 0.0)))
    return FieldNorms(clip(l2sq), clip(h1sq), clip(divsq), clip(curlsq))


# ----------------------------------------------------------------------
# trilinear forms

def _transport(form, uvals, ugrads):
    """The ``u``-only factors ``(a, L)`` of a form's density s = (a . grad) v + L v.

    ``a`` is the advecting velocity, or None.  ``L`` is the pointwise 2x2
    matrix as two rows of entries, a zero entry given as None, or L is None
    when it vanishes.  Entries broadcast like ``uvals[0]``.
    """
    if form == NonlinearForm.CONVECTIVE:
        return uvals, None
    if form == NonlinearForm.SKEW:
        half_div = 0.5 * (ugrads[0, 0] + ugrads[1, 1])
        return uvals, ((half_div, None), (None, half_div))
    if form == NonlinearForm.ROTATIONAL:
        omega = ugrads[1, 0] - ugrads[0, 1]
        return None, ((None, -omega), (omega, None))
    if form == NonlinearForm.EMAC:
        div = ugrads[0, 0] + ugrads[1, 1]
        shear = ugrads[0, 1] + ugrads[1, 0]
        return None, ((2.0 * ugrads[0, 0] + div, shear), (shear, 2.0 * ugrads[1, 1] + div))
    raise ValueError(f"unknown nonlinear form {form!r}")


def _density(transport, vvals, vgrads, out=None):
    """Pointwise s = (a . grad) v + L v with b(u, v, w) = integral of s . w.

    ``transport`` is :func:`_transport` of ``u``; the result has shape
    (2, ...) and is written to ``out`` when given.
    """
    adv, lmat = transport
    terms = ([], [])
    for c in range(2):
        if adv is not None:
            terms[c].extend(((adv[0], vgrads[c, 0]), (adv[1], vgrads[c, 1])))
        if lmat is not None:
            terms[c].extend((f, vvals[d]) for d, f in enumerate(lmat[c]) if f is not None)
    if out is None:
        out = np.empty((2,) + np.broadcast_shapes(*(np.shape(x) for row in terms for t in row for x in t)))
    scratch = np.empty_like(out[0])
    for c in range(2):
        (f, g), *rest = terms[c]
        np.multiply(f, g, out=out[c])
        for f, g in rest:
            out[c] += np.multiply(f, g, out=scratch)
    return out


def trilinear_value(space, form, u, v, w):
    """Exact value of b(u, v, w) for the selected form."""
    form = NonlinearForm.parse(form)
    uvals, ugrads = space.values_and_grads(u)
    vvals, vgrads = space.values_and_grads(v)
    wvals, _ = space.values_and_grads(w)
    s = _density(_transport(form, uvals, ugrads), vvals, vgrads)
    return float(np.sum(s * wvals * space.wdet))


def nonlinear_residual(space, form, u):
    """Vector of b(u, u, phi_i) over all velocity test functions."""
    form = NonlinearForm.parse(form)
    uvals, ugrads = space.values_and_grads(u)
    s = _density(_transport(form, uvals, ugrads), uvals, ugrads)
    # local[c, e, m] = (s_c, phi_m) on element e, for velocity dof 2*cell_scalar[e, m] + c
    local = (s * space.wdet) @ space.phi
    index = space.cell_scalar.ravel()
    r = np.empty((space.n_scalar, 2))
    for c in range(2):
        r[:, c] = np.bincount(index, weights=local[c].ravel(), minlength=space.n_scalar)
    return r.ravel()


def nonlinear_jacobian(space, form, u):
    """Exact derivative of :func:`nonlinear_residual` with respect to ``u``.

    Assembled from the two linearizations b(du, u, phi) + b(u, du, phi),
    evaluated with the same pointwise density as the residual so the pair is
    consistent by construction.
    """
    form = NonlinearForm.parse(form)
    uvals, ugrads = space.values_and_grads(u)
    nt, nq = space.wdet.shape
    # all 12 local basis directions at once, direction axis d = 2*l + c
    dvals = np.zeros((2, 12, 1, nq))
    dgrads = np.zeros((2, 2, 12, nt, nq))
    for l in range(6):
        for c in range(2):
            d = 2 * l + c
            dvals[c, d, 0] = space.phi[:, l]
            dgrads[c, :, d] = space.tables[:, l, 1:].transpose(1, 0, 2)
    s = _density(_transport(form, dvals, dgrads), uvals, ugrads)
    s += _density(_transport(form, uvals, ugrads), dvals, dgrads)
    # local[e, (m, a), d] from the loads (s_a of direction d, phi_m) on element e
    local = ((s * space.wdet) @ space.phi).transpose(2, 3, 0, 1).reshape(nt, 12, 12)
    return _scatter(local, space.cell_vel, space.cell_vel, (space.n_vel, space.n_vel))


# ----------------------------------------------------------------------
# constraints

def constraint_mask(space, boundary_values, time, size):
    """Essential DOFs and their values for a vector or system of ``size`` unknowns.

    ``size`` selects the layout: ``n_vel`` for velocity only, or
    ``n_vel + n_press`` for the saddle-point layout ``[u, p]``, whose pinned
    pressure DOF is also fixed, at zero.  Periodic slaves are already folded
    by the DOF numbering.
    """
    n_vel = space.n_vel
    if size not in (n_vel, n_vel + space.n_press):
        raise ValueError(f"system size {size} matches neither velocity nor saddle-point layout")
    mask = np.zeros(size, dtype=bool)
    vals = np.zeros(size)
    mask[:n_vel], vals[:n_vel] = space.dirichlet_data(boundary_values, time)
    if size > n_vel:
        mask[n_vel + space.pinned_pressure] = True
    return mask, vals


def saddle_block(space, c_mass, c_stiff):
    """The linear saddle-point block [[c_mass M + c_stiff K, -D^T], [D, 0]] as CSR.

    Rows and columns follow the ``[u, p]`` layout; ``saddle_block(space,
    1.0, 0.0)`` is the Stokes-projection operator.
    """
    div = space.divergence()
    top = c_mass * space.mass() + c_stiff * space.stiffness()
    return sp.bmat([[top, -div.T], [div, None]], format="csr")


def constrain_rows(matrix, mask):
    """Replace the rows of a sparse ``matrix`` selected by ``mask`` with identity rows, as CSR."""
    keep = sp.diags((~mask).astype(float), format="csr")
    return keep @ matrix + sp.diags(mask.astype(float), format="csr")


def apply_constraints(space, matrix, rhs, boundary_values, time=0.0):
    """Impose essential conditions on an assembled system.

    Works on velocity-only or saddle-point systems (see
    :func:`constraint_mask`).  Constrained rows become identity rows whose
    right-hand side carries the prescribed values.
    """
    mask, vals = constraint_mask(space, boundary_values, time, matrix.shape[0])
    rhs = np.array(rhs, dtype=float, copy=True)
    rhs[mask] = vals[mask]
    return constrain_rows(sp.csr_matrix(matrix), mask), rhs


# ----------------------------------------------------------------------
# error quadrature against analytic fields

def l2_error(space, u, fn, time=0.0):
    """L2 distance between a velocity field and an analytic ``fn(x, y, t)``."""
    vals, _ = space.values_and_grads(u)
    x, y = space.qp_xy[..., 0], space.qp_xy[..., 1]
    e1, e2 = fn(x, y, time)
    val = np.sum(space.wdet * ((vals[0] - e1) ** 2 + (vals[1] - e2) ** 2))
    return float(np.sqrt(max(val, 0.0)))


def h1_semi_error(space, u, grad_fn, time=0.0):
    """H1-seminorm distance to an analytic gradient ``grad_fn(x, y, t) -> (2,2) rows du_i/dx_j``."""
    _, grads = space.values_and_grads(u)
    x, y = space.qp_xy[..., 0], space.qp_xy[..., 1]
    g = grad_fn(x, y, time)
    val = sum(np.sum(space.wdet * (grads[i, j] - g[i][j]) ** 2) for i in range(2) for j in range(2))
    return float(np.sqrt(max(val, 0.0)))
