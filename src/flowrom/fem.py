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
Jacobian go through this pair, and so does the tests' oracle of a single
value b(u, v, w) (``trilinear_value`` in ``tests/conftest.py``).  Quadrature
tables are component-major: values have shape (2, ..., nt, nq) and
gradients (2, 2, ..., nt, nq), so the density is explicit arithmetic on
contiguous (..., nt, nq) blocks.  A field component may be None, an exact
zero: both functions then skip every product with it.  The Jacobian uses
that for its directions, the six local basis functions of one velocity
component at a time, so it forms no product with a structural zero.

Every integral reads one per-element basis table, ``space.tables`` (value
and physical gradients of each local P2 basis function at each quadrature
point), and one weight array, ``space.wdet`` (quadrature weight times
det J).  A boundary integral (the ROM's flux cube) reads their edge
counterparts, the :class:`EdgeTable` of ``space.edge_table()``: the same
table at the points of the one boundary-edge rule (:data:`EDGE_POINTS`,
4-point Gauss) on every boundary edge, each edge read from the triangle it
bounds, and the rule weight times the edge length.  A field's values and
gradients at either set of points
(:meth:`TaylorHoodSpace.values_and_grads`) come from one contiguous
``np.take`` of each element's coefficients and one batched matrix product
with the table.  The symmetric element matrices are batched matrix
products over the table, symmetrized per element so that their sums are
exactly symmetric; the divergence keeps an einsum (see
:meth:`divergence`).  Every assembled matrix is filled into one symbolic
structure per space, the P2 :class:`_NodeGraph`: its CSR pattern and each
element entry's slot in it, from one ``np.unique`` over integer keys.  A
matrix is then a ``np.bincount`` of element values into those slots, laid
out as one expansion of the graph: A (x) I_2 for mass and stiffness, full
2x2 node blocks for the div form and the Jacobian, vertex rows times two
components for the divergence.  A full block matrix takes one such
``np.bincount`` per (row, column) component pair, summed as soon as its
element values are formed.  The curl form is the div form's node blocks
relabeled as cofactors, on the div form's pattern.  Each entry adds its
element values in element order, whatever the layout, so it rounds the
same in every expansion.  The result is canonical CSR.  The graph, the
operators and all else a space derives from its mesh are built on the
first call and kept on the space, per argument, by :func:`cached`.
"""

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def _p2_basis(bary):
    """P2 basis values at barycentric points: (nq, 6)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ])


def _p2_ref_grads(bary):
    """P2 reference gradients at barycentric points: (nq, 6, 2)."""
    # gradients of barycentric coordinates on the reference triangle
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    l = bary[:, :, None]
    # midpoint node 3 + i lies on the edge (j, k) opposite vertex i
    j, k = [1, 2, 0], [2, 0, 1]
    return np.concatenate([(4 * l - 1) * gl, 4 * (l[:, j] * gl[k] + l[:, k] * gl[j])], axis=1)


# the one boundary-edge rule, 4-point Gauss-Legendre on [0, 1] from an edge's first
# vertex: exact to degree 7, and the ROM flux cube's integrand has degree 6
EDGE_POINTS, EDGE_WEIGHTS = np.polynomial.legendre.leggauss(4)   # on [-1, 1]
EDGE_POINTS, EDGE_WEIGHTS = 0.5 + 0.5 * EDGE_POINTS, 0.5 * EDGE_WEIGHTS


def cached(fn):
    """``fn(owner, *args)``, kept in ``owner._cache`` under ``(fn.__qualname__, *args)``; a raise keeps nothing.

    The store dies with its owner, where a ``functools`` cache would keep every owner alive.
    """
    @functools.wraps(fn)
    def memo(owner, *args):
        key = (fn.__qualname__, *args)
        if key not in owner._cache:
            owner._cache[key] = fn(owner, *args)
        return owner._cache[key]
    return memo


def periodic_fold(mesh):
    """The P2 nodes of ``mesh`` with its periodic pairs folded, as
    (roots, scalar_index, vertex_roots, pressure_index).

    ``roots`` is the sorted root of each merged scalar node (the vertices,
    then the edge midpoints) and ``scalar_index`` each node's place among
    them; ``vertex_roots`` and ``pressure_index`` are the same for the
    vertices alone.  So a :class:`TaylorHoodSpace` on ``mesh`` has
    ``2 * roots.size`` velocity and ``vertex_roots.size`` pressure DOFs.  A
    vertex folds onto its master in the mesh pairs (a slave listed twice
    keeps its last master), a midpoint through the induced edge
    identification.  A fold that maps an edge's two vertices to one, or
    merges two edges that share a vertex, raises ``ValueError``.
    """
    nv, edges, pairs = mesh.num_vertices, mesh.edges, mesh.periodic_pairs
    last = pairs.shape[0] - 1 - np.unique(pairs[::-1, 1], return_index=True)[1]
    vroot = np.arange(nv)
    vroot[pairs[last, 1]] = pairs[last, 0]
    while not np.array_equal(vroot[vroot], vroot):  # a slave of a slave folds onto the final root
        vroot = vroot[vroot]
    # edges whose endpoint roots coincide are translated copies of one
    # another across a periodic seam; the first such edge is the master
    ra, rb = vroot[edges[:, 0]], vroot[edges[:, 1]]
    _, first, seam = np.unique(np.minimum(ra, rb) * nv + np.maximum(ra, rb),
                               return_index=True, return_inverse=True)
    # a translate shares no vertex with its copies; a fold of a mesh one
    # or two cells across a seam collapses an edge or merges two edges
    # that share a vertex, and leaves no P2 space
    distinct = np.bincount(np.unique(np.repeat(seam, 2) * nv + edges.ravel()) // nv)
    if np.any(ra == rb) or np.any(distinct < 2 * np.bincount(seam)):
        raise ValueError("the periodic fold collapses an edge or merges two that share a vertex: "
                         "too few cells across a seam")
    return (*np.unique(np.concatenate([vroot, nv + first[seam]]), return_inverse=True),
            *np.unique(vroot, return_inverse=True))


@dataclass(frozen=True)
class _NodeGraph:
    """The P2 node graph of a space as CSR, and each element entry's slot in it.

    Nodes s and t are adjacent when one element holds both; every node is
    its own neighbour.  Row s lists its neighbours, sorted, in
    ``indices[indptr[s]:indptr[s + 1]]``, and ``slots[e, a, b]`` is the
    position there of the pair (``cell_scalar[e, a]``, ``cell_scalar[e, b]``).
    Every FE matrix is a ``np.bincount`` of its element values into these
    slots (:meth:`_sum`, once per component pair of a velocity matrix),
    laid out as one expansion of the graph (:meth:`kron_i2`, :meth:`_velocity`,
    :meth:`vertex_rows`); its CSR is canonical by construction.  The
    matrices of one velocity expansion share its read-only index arrays.
    """

    indptr: np.ndarray     # (n + 1,) int32
    indices: np.ndarray    # (nnz,) int32
    slots: np.ndarray      # (nt, 6, 6) int32
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, cell_scalar, n):
        """The graph of ``n`` nodes joined by the elements ``cell_scalar`` (nt, 6)."""
        keys = (cell_scalar[:, :, None] * n + cell_scalar[:, None, :]).ravel()
        keys, slots = np.unique(keys, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(indptr, (keys % n).astype(np.int32), slots.reshape(-1, 6, 6).astype(np.int32))

    def rows(self):
        """The row of each graph entry, and the length of each row."""
        deg = np.diff(self.indptr)
        return np.repeat(np.arange(deg.size), deg), deg

    def _sum(self, elem):
        """Per-entry sums of element values (nt, 6, 6) at ``slots``."""
        return np.bincount(self.slots.ravel(), elem.ravel(), minlength=self.indices.size)

    def _offsets(self, width):
        """Position of each graph entry's (0, 0) value in a velocity CSR, and the row-2s+1 shift.

        Row 2s starts at 2 width indptr[s] and row 2s + 1 width deg(s)
        later, so entry (c, d) of graph entry e sits at
        ``first[e] + c * shift[e] + d``.
        """
        row, deg = self.rows()
        return width * (np.arange(row.size) + self.indptr[row]), width * deg[row]

    @cached
    def _pattern(self, width):
        """The read-only ``(indptr, indices)`` of the velocity CSR of :meth:`_velocity`."""
        first, shift = self._offsets(width)
        deg = np.diff(self.indptr)
        indptr = np.empty(2 * deg.size + 1, dtype=np.int32)
        indptr[0::2] = 2 * width * self.indptr
        indptr[1::2] = width * (2 * self.indptr[:-1] + deg)
        indices = np.empty(indptr[-1], dtype=np.int32)
        for c in range(2):
            for d in range(width):
                indices[first + c * shift + d] = 2 * self.indices + (d if width == 2 else c)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def _velocity(self, sums, width):
        """Velocity CSR whose row 2s + c holds ``width`` columns 2t + d per neighbour t of s.

        With width 1 the column is d = c (A (x) I_2), with width 2 both d
        (full 2x2 node blocks).  ``sums(c, d)`` gives the per-entry values
        of row component c, column component d (layout in :meth:`_offsets`).
        """
        indptr, indices = self._pattern(width)
        first, shift = self._offsets(width)
        data = np.empty(indices.size)
        for c in range(2):
            for d in range(width):
                data[first + c * shift + d] = sums(c, d)
        return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)

    def kron_i2(self, elem):
        """Scalar element matrices (nt, 6, 6), summed, as the velocity matrix A (x) I_2."""
        values = self._sum(elem)
        return self._velocity(lambda c, d: values, 1)

    def vertex_rows(self, elem, n_rows):
        """Element matrices (nt, 3, 12) from the vertex nodes to velocity DOFs, summed.

        Rows are the first ``n_rows`` nodes, which must be the element
        vertices (local nodes 0-2); row s holds the columns 2t and 2t + 1
        of each neighbour t of s, two CSR entries per graph entry.
        """
        nnz = self.indptr[n_rows]
        at = 2 * self.slots[:, :3, :, None].astype(np.intp) + np.arange(2)
        data = np.bincount(at.ravel(), elem.ravel(), minlength=2 * nnz)
        indices = (2 * self.indices[:nnz, None] + np.arange(2, dtype=np.int32)).ravel()
        shape = (n_rows, 2 * (self.indptr.size - 1))
        return sp.csr_matrix((data, indices, 2 * self.indptr[: n_rows + 1]), shape=shape)


def _symmetric(elem):
    """Element matrices made exactly symmetric, so that their sums are too."""
    out = elem + elem.transpose(0, 2, 1)
    out *= 0.5
    return out


class TaylorHoodSpace:
    """P2 vector velocity / P1 pressure degree-of-freedom layout on a mesh.

    Periodic vertex pairs of the mesh are folded (:func:`periodic_fold`):
    slave P2 nodes (vertices and midpoints of slave edges) share the DOF of
    their master, both for velocity and pressure.  One pressure DOF (index
    0) is pinned during solves since neither experiment carries an
    essential pressure condition.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nv = mesh.num_vertices
        tris = mesh.triangles

        # the mesh's edge table: midpoint node nv + e sits on edge e
        self.edges = mesh.edges
        self.cell_edges = mesh.cell_edges
        self.n_vertices = nv

        # the vertex roots come first among the scalar roots, so pressure
        # DOF q is scalar node q
        roots, self.scalar_index, proots, self.pressure_index = periodic_fold(mesh)
        self.n_scalar = roots.size
        self.n_vel = 2 * self.n_scalar
        self.n_press = proots.size
        self.pinned_pressure = 0

        # representative coordinates of merged nodes (master's position)
        midpoints = 0.5 * (mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]])
        self.scalar_xy = np.vstack([mesh.vertices, midpoints])[roots]

        # connectivity in merged numbering
        raw_cell_scalar = np.hstack([tris, nv + self.cell_edges])
        self.cell_scalar = self.scalar_index[raw_cell_scalar]          # (nt, 6)
        self.cell_press = self.pressure_index[tris]                    # (nt, 3)

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

        self._cache = {}

    @cached
    def qp_xy(self):
        """Physical coordinates of the quadrature points, (nt, nq, 2).

        Formed on the first call: only the error quadrature reads them.
        """
        return np.matmul(self.quadrature.points, self.mesh.vertices[self.mesh.triangles])

    # ------------------------------------------------------------------
    # assembled operators (cached, unscaled)

    @cached
    def _graph(self):
        """The :class:`_NodeGraph` of the P2 nodes, which every operator fills."""
        return _NodeGraph.build(self.cell_scalar, self.n_scalar)

    def _gram(self, coef):
        """Element matrices sum_kq w_q coef[:, a, k, q] coef[:, b, k, q], exactly symmetric.

        ``coef`` is (nt, a, k, nq); one batched product over the (k, q) axis,
        whose weighted operand is freed before the symmetrization.
        """
        nt, a = coef.shape[:2]
        return _symmetric(np.matmul((coef * self.wdet[:, None, None, :]).reshape(nt, a, -1),
                                    coef.reshape(nt, a, -1).transpose(0, 2, 1)))

    @cached
    def mass(self):
        """Vector mass matrix (u, v)."""
        nq = self.phi.shape[0]
        pairs = (self.phi[:, :, None] * self.phi[:, None, :]).reshape(nq, 36)
        return self._graph().kron_i2(_symmetric((self.wdet @ pairs).reshape(-1, 6, 6)))

    @cached
    def stiffness(self):
        """Vector stiffness matrix (grad u, grad v), unscaled by viscosity."""
        return self._graph().kron_i2(self._gram(self.tables[:, :, 1:]))

    @cached
    def divergence(self):
        """Divergence operator B with (B u)_q = (div u, psi_q), psi the P1 (barycentric) basis."""
        # an einsum, not a batched product: it rounds entries that are equal
        # by mesh symmetry alike, and the saddle-point LU breaks its pivot
        # ties among them by position, so its fill depends on this
        grads = self.tables[:, :, 1:].reshape(len(self.tables), 12, -1)   # d_c phi_l of local DOF 2l + c
        elem = np.einsum("eq,qp,elq->epl", self.wdet, self.quadrature.points, grads)
        return self._graph().vertex_rows(elem, self.n_press)

    @cached
    def div_form(self):
        """Operator for ||div u||^2 = u^T G u, from four component-pair sums.

        Pair (c, d) sums sum_q w_q d_c phi_a d_d phi_b, symmetric against (d, c) as in :func:`_symmetric`.
        """
        grads = self.tables[:, :, 1:]
        weighted = grads * self.wdet[:, None, None, :]
        gram = lambda c, d: np.matmul(weighted[:, :, c], grads[:, :, d].transpose(0, 2, 1))
        graph = self._graph()
        sums = {(c, c): graph._sum(_symmetric(gram(c, c))) for c in range(2)}
        cross = 0.5 * (gram(0, 1) + gram(1, 0).transpose(0, 2, 1))
        sums[0, 1], sums[1, 0] = graph._sum(cross), graph._sum(cross.transpose(0, 2, 1))
        del weighted, cross   # not held while the matrix is laid out
        return graph._velocity(lambda c, d: sums[c, d], 2)

    @cached
    def curl_form(self):
        """Operator for ||curl u||^2 = u^T G u (scalar 2D curl), on the :meth:`div_form` pattern.

        The curl's coefficients (-dy phi, +dx phi) make its node blocks the cofactors
        [[s11, -s10], [-s01, s00]] of the div form's; 0 - x keeps a zero sum +0.
        """
        div = self.div_form()
        first, shift = self._graph()._offsets(2)
        data = np.empty_like(div.data)
        for c, d in np.ndindex(2, 2):
            block = div.data[first + (1 - c) * shift + (1 - d)]
            data[first + c * shift + d] = block if c == d else 0.0 - block
        return sp.csr_matrix((data, div.indices, div.indptr), shape=div.shape)

    @cached
    def pressure_volume(self):
        """Vector of integrals of the pressure basis functions."""
        elem = self.wdet @ self.quadrature.points
        return np.bincount(self.cell_press.ravel(), elem.ravel(), minlength=self.n_press)

    @cached
    def saddle_order(self):
        """Fill-reducing order of the ``[u, p]`` saddle-point unknowns.

        Minimum degree on the P2 node graph (SuperLU's MMD on A^T + A, no
        pivoting, on an SPD matrix with the graph's pattern), started from
        the graph's reverse Cuthill-McKee numbering.  Minimum degree breaks
        its many ties on a structured mesh by the numbering it starts from
        (George & Liu, SIAM Rev. 31, 1989); on the periodic meshes the
        space's own (vertices, then edge midpoints) fills most, and RCM's
        cuts the Newton LU fill by a fifth on the 32x32 shear layer and the
        48x48 torus.  On 16x16, 32x32 and 48x48 no-slip squares, non-periodic
        meshes that no package problem uses, RCM's start fills 7.5%, 4.6% and
        27.1% more than the space's own.
        Each node expands to its ``u_x`` and ``u_y`` DOFs, followed on a
        vertex by its pressure DOF; a pressure couples only to the P2
        neighbours of its vertex, so the compressed graph loses no edge.
        Ordering the saddle-point matrix itself instead lets its zero
        pressure diagonal force off-diagonal pivots.  Returns the index
        array ``order`` with ``m[order][:, order]`` the reordered matrix.
        """
        graph = self._graph()
        row, deg = graph.rows()
        # the graph with diagonal deg(s) and off-diagonal -1 is diagonally
        # dominant, so it factors with diagonal pivots
        pattern = sp.csr_matrix((np.where(graph.indices == row, deg[row], -1.0), graph.indices,
                                 graph.indptr), shape=(deg.size,) * 2)
        pre = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        # SuperLU orders before it factors; an incomplete factor that keeps
        # no fill gives the same perm_c as a full one, at a fraction of the cost
        mmd = spla.spilu(pattern[pre][:, pre].tocsc(), drop_tol=1.0, fill_factor=1,
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        rank = np.empty_like(mmd.perm_c)  # rank[s]: position of scalar node s in the elimination
        rank[pre] = mmd.perm_c
        key = np.empty(self.n_vel + self.n_press, dtype=np.int64)
        key[0 : self.n_vel : 2] = 3 * rank
        key[1 : self.n_vel : 2] = 3 * rank + 1
        key[self.n_vel + self.pressure_index] = 3 * rank[self.scalar_index[: self.n_vertices]] + 2
        return np.argsort(key)

    # ------------------------------------------------------------------
    # field evaluation

    def values_and_grads(self, u, at=None):
        """Component-major velocity values and gradients at the quadrature points.

        ``u`` is one field (n_vel,) or a stack (m, n_vel).  Returns values
        (2, [m,] nt, nq) and gradients (2, 2, [m,] nt, nq), with
        ``grads[i, j]`` = du_i/dx_j, from one contraction with the basis
        tables.  Given an :class:`EdgeTable` ``at``, the same at its edge
        points, with the edges in place of the nt elements.
        """
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != (self.n_vel,) or u.ndim > 2:
            raise ValueError(f"velocity field has shape {u.shape}, expected ([m,] {self.n_vel})")
        tables, cells = self.tables, self.cell_scalar
        if at is not None:
            tables, cells = at.tables, self.cell_scalar[at.cells]
        nt, _, _, nq = tables.shape
        m = u.size // self.n_vel
        # per element, the (2m x 6) coefficients, rows (component, field), times
        # the (6 x 3nq) basis table
        coeffs = np.take(u.reshape(m, self.n_scalar, 2), cells, axis=1).transpose(1, 3, 0, 2)
        out = np.matmul(coeffs.reshape(nt, 2 * m, 6), tables.reshape(nt, 6, 3 * nq))
        out = np.ascontiguousarray(out.reshape(nt, 2, m, 3, nq).transpose(1, 3, 2, 0, 4))
        out = out.reshape((2, 3) + u.shape[:-1] + (nt, nq))
        return out[:, 0], out[:, 1:]

    def _check_velocity(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_vel,):
            raise ValueError(f"velocity field has shape {u.shape}, expected ({self.n_vel},)")
        return u

    @cached
    def edge_table(self):
        """The :class:`EdgeTable` of every boundary edge, in ``mesh.boundary_edges`` order."""
        mesh = self.mesh
        edges = mesh.boundary_edges
        cells = mesh.boundary_cells
        pa = mesh.vertices[edges[:, 0]]
        d = mesh.vertices[edges[:, 1]] - pa
        lengths = np.linalg.norm(d, axis=1)
        # boundary edges keep the domain on their left, so (dy, -dx) points out
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
        pts = pa[:, None, :] + EDGE_POINTS[None, :, None] * d[:, None, :]   # (ne, nq, 2)
        rel = pts - mesh.vertices[mesh.triangles[cells, 0]][:, None, :]
        # xi = J^{-1} (x - v0); inv_jt stores J^{-T}
        inv_jt = self.inv_jt[cells]
        xi = np.einsum("ekd,eqk->eqd", inv_jt, rel)
        bary = np.concatenate([1.0 - xi.sum(axis=-1, keepdims=True), xi], axis=-1)
        flat = bary.reshape(-1, 3)
        tables = np.empty((cells.size, 6, 3, EDGE_POINTS.size))
        tables[:, :, 0, :] = _p2_basis(flat).reshape(cells.size, -1, 6).transpose(0, 2, 1)
        ref = _p2_ref_grads(flat).reshape(cells.size, -1, 6, 2)
        tables[:, :, 1:, :] = np.einsum("edk,eqlk->eldq", inv_jt, ref)
        return EdgeTable(cells=cells, tables=tables, weights=lengths[:, None] * EDGE_WEIGHTS, normals=normals)

    # ------------------------------------------------------------------
    # essential constraints

    @cached
    def boundary_scalar_nodes(self, label):
        """Merged scalar node ids (vertices + midpoints) on edges labeled ``label``."""
        idx = self.mesh.boundary_edges_with_label(label)
        if idx.size == 0:
            raise ValueError(f"mesh has no boundary edges labeled {label!r}")
        ends = self.mesh.boundary_edges[idx].ravel()
        mids = self.n_vertices + self.mesh.boundary_edge_ids[idx]
        return np.unique(self.scalar_index[np.concatenate([ends, mids])])

    def dirichlet_data(self, boundary_values):
        """Evaluate essential boundary data into a mask and value vector.

        ``boundary_values`` maps mesh labels to the velocity each prescribes:
        a pair ``(u1, u2)`` of numbers, with ``None`` for a free component,
        or a callable ``(x, y, t) -> (u1, u2)`` of the label's node
        coordinates.  ``(0.0, 0.0)`` is no-slip and ``(None, 0.0)``
        no-penetration through a horizontal wall.  Callables are evaluated at
        t = 0 (the data are steady, as in ``fom.build_initial_condition``).  A
        label missing from the mesh, or a condition (or what its callable
        returns) that is not a two-entry pair, raises ``ValueError``.
        """
        mask = np.zeros(self.n_vel, dtype=bool)
        vals = np.zeros(self.n_vel)
        for label, cond in boundary_values.items():
            nodes = self.boundary_scalar_nodes(label)
            if callable(cond):
                cond = cond(self.scalar_xy[nodes, 0], self.scalar_xy[nodes, 1], 0.0)
            if not (isinstance(cond, (tuple, list)) and len(cond) == 2):
                raise ValueError(f"boundary condition for label {label!r} is not a velocity pair (u1, u2)")
            for c, val in enumerate(cond):
                if val is not None:
                    dofs = 2 * nodes + c
                    mask[dofs] = True
                    vals[dofs] = val
        return mask, vals


@dataclass(frozen=True)
class EdgeTable:
    """The boundary-edge counterpart of ``space.tables`` and ``space.wdet``.

    The points are :data:`EDGE_POINTS` on each edge, read from the one
    triangle the edge bounds.
    """

    cells: np.ndarray     # (ne,) the triangle of each edge
    tables: np.ndarray    # (ne, 6, 3, nq) P2 basis values and physical gradients, as ``space.tables``
    weights: np.ndarray   # (ne, nq) rule weight times edge length
    normals: np.ndarray   # (ne, 2) outward unit normals


def assemble_linear_operators(mesh, space, nu):
    """Mass, viscous stiffness (scaled by ``nu``) and divergence operators."""
    if space.mesh is not mesh:
        raise ValueError("space was not built on the given mesh")
    return space.mass(), nu * space.stiffness(), space.divergence()


# ----------------------------------------------------------------------
# trilinear forms

def _add(x, y):
    """x + y, where a None operand is an exact zero."""
    return y if x is None else x if y is None else x + y


def _scale(a, x):
    """a x, where a None ``x`` is an exact zero."""
    return None if x is None else a * x


def _transport(form, uvals, ugrads):
    """The ``u``-only factors ``(a, L)`` of a form's density s = (a . grad) v + L v.

    ``a`` is the advecting velocity, or None.  ``L`` is the pointwise 2x2
    matrix as two rows of entries, a zero entry given as None, or L is None
    when it vanishes.  Entries broadcast like ``uvals[0]``.  A component i
    of ``u`` may be None in both ``uvals`` and ``ugrads``: it is zero, and
    the factors keep only the products of the other component.
    """
    grad = lambda i, j: None if ugrads[i] is None else ugrads[i][j]
    if form == NonlinearForm.CONVECTIVE:
        return uvals, None
    if form == NonlinearForm.SKEW:
        half_div = _scale(0.5, _add(grad(0, 0), grad(1, 1)))
        return uvals, ((half_div, None), (None, half_div))
    if form == NonlinearForm.ROTATIONAL:
        omega = _add(grad(1, 0), _scale(-1.0, grad(0, 1)))
        return None, ((None, _scale(-1.0, omega)), (omega, None))
    if form == NonlinearForm.EMAC:
        div = _add(grad(0, 0), grad(1, 1))
        shear = _add(grad(0, 1), grad(1, 0))
        return None, ((_add(_scale(2.0, grad(0, 0)), div), shear),
                      (shear, _add(_scale(2.0, grad(1, 1)), div)))
    raise ValueError(f"unknown nonlinear form {form!r}")


def _density(transport, vvals, vgrads, into=None):
    """Pointwise s = (a . grad) v + L v with b(u, v, w) = integral of s . w.

    ``transport`` is :func:`_transport` of ``u``; the result has shape
    (2, ...).  A component of ``v`` may be None in both ``vvals`` and
    ``vgrads``, like a component of ``u`` in :func:`_transport`: the
    products with it are skipped, and a component of s left with none is 0.
    Given ``into``, each component of s is summed first and then added to
    that of ``into``, which is returned; a zero component adds nothing.
    """
    adv, lmat = transport
    terms = ([], [])
    for c in range(2):
        if adv is not None and vgrads[c] is not None:
            terms[c].extend((a, g) for a, g in zip(adv, vgrads[c]) if a is not None)
        if lmat is not None:
            terms[c].extend((f, vvals[d]) for d, f in enumerate(lmat[c])
                            if f is not None and vvals[d] is not None)
    shape = np.broadcast_shapes(*(np.shape(x) for row in terms for t in row for x in t))
    out = np.empty((2,) + shape if into is None else shape)
    scratch = np.empty(shape)
    for c in range(2):
        if not terms[c]:
            if into is None:
                out[c] = 0.0
            continue
        total = out[c] if into is None else out
        (f, g), *rest = terms[c]
        np.multiply(f, g, out=total)
        for f, g in rest:
            total += np.multiply(f, g, out=scratch)
        if into is not None:
            into[c] += total
    return out if into is None else into


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
    consistent by construction.  The directions du are the local basis
    functions of one velocity component at a time, read from
    ``space.tables``; the other component is None, so no product with a
    structural zero is formed.  Each (row, column) component block goes
    to the node graph's :meth:`_NodeGraph._sum` as soon as it is formed.
    """
    form = NonlinearForm.parse(form)
    uvals, ugrads = space.values_and_grads(u)
    factors = _transport(form, uvals, ugrads)
    # the six directions of one component: values (6, nt, nq) and gradients (2, 6, nt, nq)
    values, *grads = np.ascontiguousarray(space.tables.transpose(2, 1, 0, 3))
    sums = []   # sums[c][a]: the block of row component a, column component c
    for c in range(2):
        dvals, dgrads = [None, None], [None, None]
        dvals[c], dgrads[c] = values, grads
        s = _density(_transport(form, dvals, dgrads), uvals, ugrads)
        _density(factors, dvals, dgrads, into=s)
        s *= space.wdet
        # s[a, e, m, l] becomes (s_a of direction (l, c), phi_m) on element e
        s = (s @ space.phi).transpose(0, 2, 3, 1)
        sums.append([space._graph()._sum(block) for block in s])
        del s   # not held while the next component's density forms
    return space._graph()._velocity(lambda a, c: sums[c][a], 2)


# ----------------------------------------------------------------------
# constraints

def constraint_mask(space, boundary_values):
    """Essential DOFs and their values in the saddle-point layout ``[u, p]``.

    The velocity DOFs come from ``space.dirichlet_data`` (steady, at t = 0); the pinned
    pressure DOF is also fixed, at zero.  Periodic slaves are already
    folded by the DOF numbering.
    """
    n_vel = space.n_vel
    mask = np.zeros(n_vel + space.n_press, dtype=bool)
    vals = np.zeros(mask.size)
    mask[:n_vel], vals[:n_vel] = space.dirichlet_data(boundary_values)
    mask[n_vel + space.pinned_pressure] = True
    return mask, vals


def saddle_block(space, c_mass, c_stiff):
    """The linear saddle-point block [[c_mass M + c_stiff K, -D^T], [D, 0]] as CSR.

    Rows and columns follow the ``[u, p]`` layout; ``saddle_block(space,
    c, 0.0)`` is the Stokes-projection operator, balanced by ``c`` (see
    ``fom.stokes_project``).
    """
    div = space.divergence()
    top = c_mass * space.mass() + c_stiff * space.stiffness()
    return sp.bmat([[top, -div.T], [div, None]], format="csr")


def constrain_rows(matrix, mask):
    """Turn the rows of the CSR ``matrix`` selected by ``mask`` into identity rows, in place.

    Edits the CSR arrays: the first entry of a masked row becomes its
    diagonal 1, and every other entry of a masked row and every explicit
    zero is dropped.  That gives ``diag(~mask) @ m + diag(mask)`` bit for
    bit and with the same pattern: SuperLU treats an explicit zero as an
    entry, so dropping one is part of the result.  The result is
    canonical.  Returns ``matrix``.
    """
    matrix.sum_duplicates()
    deg = np.diff(matrix.indptr)
    held = mask & (deg > 0)
    first = matrix.indptr[:-1][held]
    matrix.data[np.repeat(mask, deg)] = 0.0
    matrix.data[first] = 1.0
    matrix.indices[first] = np.flatnonzero(held)
    matrix.eliminate_zeros()
    bare = mask & ~held
    if bare.any():
        # a masked row without entries has none to hold its diagonal
        full = matrix + sp.diags(bare.astype(float), format="csr")
        matrix.data, matrix.indices, matrix.indptr = full.data, full.indices, full.indptr
    return matrix


def apply_constraints(space, matrix, rhs, boundary_values):
    """Impose essential conditions, evaluated at t = 0, on an assembled saddle-point system.

    The mask is :func:`constraint_mask`'s.  Constrained rows become identity
    rows whose right-hand side carries the prescribed values.
    """
    mask, vals = constraint_mask(space, boundary_values)
    rhs = np.array(rhs, dtype=float, copy=True)
    rhs[mask] = vals[mask]
    return constrain_rows(sp.csr_matrix(matrix, copy=True), mask), rhs


# ----------------------------------------------------------------------
# error quadrature against analytic fields

def l2_error(space, u, fn, time=0.0):
    """L2 distance between a velocity field and an analytic ``fn(x, y, t)``."""
    vals, _ = space.values_and_grads(u)
    x, y = space.qp_xy().transpose(2, 0, 1)
    e1, e2 = fn(x, y, time)
    val = np.sum(space.wdet * ((vals[0] - e1) ** 2 + (vals[1] - e2) ** 2))
    return float(np.sqrt(max(val, 0.0)))


def h1_semi_error(space, u, grad_fn, time=0.0):
    """H1-seminorm distance to an analytic gradient ``grad_fn(x, y, t) -> (2,2) rows du_i/dx_j``."""
    _, grads = space.values_and_grads(u)
    x, y = space.qp_xy().transpose(2, 0, 1)
    g = grad_fn(x, y, time)
    val = sum(np.sum(space.wdet * (grads[i, j] - g[i][j]) ** 2) for i in range(2) for j in range(2))
    return float(np.sqrt(max(val, 0.0)))
