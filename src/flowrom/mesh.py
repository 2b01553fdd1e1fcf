"""Triangulations: a rectangle generator and the bundled cylinder channel.

A :class:`Mesh` is immutable once built.  Boundary edges are stored oriented
so that the fluid domain lies on their left; the outward normal of an edge
with direction ``d`` is then ``(d_y, -d_x)`` (this also holds on interior
hole boundaries such as the cylinder, where "outward" means out of the
fluid).

Every mesh carries one edge table, built once from its triangles and
carried over unchanged by :func:`identify_periodic`.  The edges are the
sorted vertex pairs ``(lo, hi)`` of the triangles' sides, ordered by the
integer key ``lo * nv + hi``; ``cell_edges`` numbers each triangle's local
edge i, the edge opposite vertex i; and each boundary edge knows its global
edge and the one triangle that holds it.  The Taylor-Hood numbering, the
essential boundary nodes and the boundary-edge rule of the ROM's flux cube
all read this table, and no other module derives edges from triangles.  A
boundary edge takes the direction of that triangle's counterclockwise
side, which puts the domain on its left.
"""

from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np


class MeshFormatError(ValueError):
    """Raised for a boundary edge that is not the side of exactly one triangle."""


@dataclass(frozen=True)
class Mesh:
    """Planar triangulation with labeled boundary and periodic identifications.

    Built by :func:`uniform_rect_mesh` (a rectangle) or :func:`load_bundled_mesh`
    (the cylinder channel), which fill in the edge table (``edges`` to
    ``boundary_cells``).

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Counterclockwise vertex triples.
    boundary_edges : (nb, 2) int array
        Oriented with the domain on the left.
    boundary_labels : tuple of str, length nb
    edges : (ne, 2) int array
        Every edge once, as its sorted vertex pair ``(lo, hi)``, in the
        order of the key ``lo * nv + hi``.
    cell_edges : (nt, 3) int array
        Row of ``edges`` of each triangle's local edge i, which lies
        opposite vertex i.
    boundary_edge_ids : (nb,) int array
        Row of ``edges`` of each boundary edge.
    boundary_cells : (nb,) int array
        The one triangle holding each boundary edge, as one of its
        counterclockwise sides.
    periodic_pairs : (np, 2) int array
        Rows ``(master, slave)``; slave vertices coincide with their master
        up to a translation along one axis.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: tuple
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_edge_ids: np.ndarray
    boundary_cells: np.ndarray
    periodic_pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges, self.edges, self.cell_edges,
                    self.boundary_edge_ids, self.boundary_cells, self.periodic_pairs):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    def boundary_edges_with_label(self, label):
        """Indices into ``boundary_edges`` carrying ``label``."""
        return np.flatnonzero(np.array(self.boundary_labels, dtype=str) == label)


def _build_mesh(vertices, triangles, boundary, labels):
    """A :class:`Mesh` with its edge table; ``boundary`` edges may come in either direction.

    The edges are the distinct integer keys ``lo * nv + hi`` of the
    triangles' sides.  Each boundary edge is looked up among them and must
    be a side of exactly one triangle; that side gives both the triangle and
    the edge's direction.  The first edge that is not raises
    :class:`MeshFormatError`, which names it ``boundary edge (a, b)``.
    """
    nv = len(vertices)
    sides = triangles[:, [[1, 2], [2, 0], [0, 1]]]    # counterclockwise, side i opposite vertex i
    keys, first, inverse, counts = np.unique((sides.min(axis=2) * nv + sides.max(axis=2)).ravel(),
                                             return_index=True, return_inverse=True, return_counts=True)
    boundary = np.asarray(boundary, dtype=int).reshape(-1, 2)
    bkeys = boundary.min(axis=1) * nv + boundary.max(axis=1)
    ids = np.searchsorted(keys, bkeys)
    # closed by a key above every edge's, so that a search never runs off the end
    missing = np.append(keys, nv * nv)[ids] != bkeys
    if missing.any():
        raise MeshFormatError("boundary edge ({}, {}) does not belong to any triangle".format(*boundary[missing][0]))
    shared = counts[ids] > 1
    if shared.any():
        raise MeshFormatError("boundary edge ({}, {}) is shared by more than one triangle".format(*boundary[shared][0]))
    side = first[ids]
    return Mesh(vertices=vertices, triangles=triangles, boundary_edges=sides.reshape(-1, 2)[side],
                boundary_labels=tuple(labels), edges=np.column_stack(np.divmod(keys, nv)),
                cell_edges=inverse.reshape(-1, 3), boundary_edge_ids=ids, boundary_cells=side // 3)


def uniform_rect_mesh(nx, ny, x_extent=1.0, y_extent=1.0):
    """Uniform triangulation of the rectangle (0, x_extent) x (0, y_extent).

    Produces ``(nx+1)(ny+1)`` vertices and ``2*nx*ny`` triangles; boundary
    edges are labeled ``left``/``right``/``top``/``bottom``.  The cell
    diagonals form a checkerboard, which avoids biasing shear roll-up along
    one direction.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    xs = np.linspace(0.0, x_extent, nx + 1)
    ys = np.linspace(0.0, y_extent, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j), row-major in j, has corners a, b, c, d counterclockwise
    # from its lower left; its two triangles follow each other
    j, i = np.divmod(np.arange(nx * ny), nx)
    a = j * (nx + 1) + i
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    even = ((i + j) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([a, b, c]), np.column_stack([a, b, d]))
    second = np.where(even, np.column_stack([a, c, d]), np.column_stack([b, c, d]))
    triangles = np.stack([first, second], axis=1).reshape(-1, 3)

    # bottom and top sides alternate along x, then right and left along y
    i = np.arange(nx)
    top = ny * (nx + 1) + i
    j = np.arange(ny) * (nx + 1)
    edges = np.concatenate([
        np.stack([np.column_stack([i, i + 1]), np.column_stack([top + 1, top])], axis=1).reshape(-1, 2),
        np.stack([np.column_stack([j + nx, j + 2 * nx + 1]), np.column_stack([j + nx + 1, j])],
                 axis=1).reshape(-1, 2),
    ])
    return _build_mesh(vertices, triangles, edges, ("bottom", "top") * nx + ("right", "left") * ny)


def identify_periodic(mesh, axis):
    """Pair opposite-boundary vertices along ``axis`` ("x" or "y").

    Master vertices sit on the low side (x or y minimum), slaves on the high
    side; pairs are appended to any already present (so calling once per axis
    yields a doubly periodic mesh).  Raises ``ValueError`` listing the
    coordinates of any vertex that has no partner within ``1e-8`` times the
    domain extent along the axis.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    c = 0 if axis == "x" else 1
    other = 1 - c
    coords = mesh.vertices
    boundary_vertices = np.unique(mesh.boundary_edges)
    lo, hi = coords[:, c].min(), coords[:, c].max()
    tolerance = 1e-8 * (hi - lo)
    on_lo = boundary_vertices[np.abs(coords[boundary_vertices, c] - lo) <= tolerance]
    on_hi = boundary_vertices[np.abs(coords[boundary_vertices, c] - hi) <= tolerance]
    if on_lo.size != on_hi.size:
        raise ValueError(
            f"periodic matching along {axis}: {on_lo.size} vertices on the low side "
            f"but {on_hi.size} on the high side"
        )
    # the k-th vertices of the two sides in the order of the other coordinate pair up
    partner = np.empty_like(on_hi)
    partner[np.argsort(coords[on_lo, other])] = on_hi[np.argsort(coords[on_hi, other])]
    gap = np.abs(coords[partner, other] - coords[on_lo, other])
    bad = np.flatnonzero(~(gap <= tolerance))    # a NaN gap is no match either
    if bad.size:
        x, y = coords[on_lo[bad[0]]]
        raise ValueError(
            f"periodic matching along {axis}: vertex at ({x:.12g}, {y:.12g}) "
            f"has no partner within tolerance {tolerance:g}"
        )
    new_pairs = np.column_stack([on_lo, partner])
    all_pairs = np.vstack([mesh.periodic_pairs, new_pairs])
    return replace(mesh, periodic_pairs=all_pairs)


# the boundary markers of the cylinder channel's Triangle files
CYLINDER_LABELS = {1: "inflow", 2: "outflow", 3: "wall", 4: "cylinder"}


def read_triangle_mesh(node_text, ele_text, boundary_text):
    """The cylinder channel from its three Triangle texts, as ``tools/make_cylinder_mesh.py`` writes them.

    Each text is a header line and then one record per line: ``.node``
    ``<idx> <x> <y>``, ``.ele`` ``<idx> <v1> <v2> <v3>`` counterclockwise,
    and ``.edge`` ``<idx> <v1> <v2> <marker>`` with the markers of
    :data:`CYLINDER_LABELS`; vertices are numbered from 1.
    """
    vertices = np.loadtxt(node_text.splitlines(), skiprows=1, usecols=(1, 2))
    triangles = np.loadtxt(ele_text.splitlines(), dtype=int, skiprows=1, usecols=(1, 2, 3)) - 1
    edges = np.loadtxt(boundary_text.splitlines(), dtype=int, skiprows=1, usecols=(1, 2, 3))
    return _build_mesh(vertices, triangles, edges[:, :2] - 1, [CYLINDER_LABELS[m] for m in edges[:, 2].tolist()])


def load_bundled_mesh():
    """Load the mesh shipped with the package, the cylinder channel.

    It is a coarse pre-generated triangulation of the 2.2 x 0.41 channel
    with a polygonal approximation of the radius-0.05 hole centered at
    (0.2, 0.2); labels are ``inflow``/``outflow``/``wall``/``cylinder``.
    """
    data = resources.files("flowrom").joinpath("data")
    node, ele, edge = (data.joinpath(f"cylinder_coarse.{ext}").read_text() for ext in ("node", "ele", "edge"))
    return read_triangle_mesh(node, ele, edge)
