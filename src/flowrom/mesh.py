"""Triangulations: built-in rectangle generator and a Triangle-format reader.

A :class:`Mesh` is immutable once built.  Boundary edges are stored oriented
so that the fluid domain lies on their left; the outward normal of an edge
with direction ``d`` is then ``(d_y, -d_x)`` (this also holds on interior
hole boundaries such as the cylinder, where "outward" means out of the
fluid).

Triangle-generator text layout accepted by :func:`read_triangle_mesh`:

* ``.node``:  ``<#vertices> <dim> <#attrs> <#markers>`` then one line per
  vertex ``<idx> <x> <y> [attrs...] [marker]``.
* ``.ele``:   ``<#triangles> <nodes-per-tri> <#attrs>`` then
  ``<idx> <v1> <v2> <v3> [attrs...]``.
* boundary (``.edge``-style): ``<#edges> <#markers>`` then
  ``<idx> <v1> <v2> <marker>``.

Indices may be 0- or 1-based; the base is detected from the ``.node`` file
and applied consistently, as the Triangle generator does.
"""

from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; carries the offending line number."""


@dataclass(frozen=True)
class Mesh:
    """Planar triangulation with labeled boundary and periodic identifications.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Counterclockwise vertex triples.
    boundary_edges : (nb, 2) int array
        Oriented with the domain on the left.
    boundary_labels : tuple of str, length nb
    periodic_pairs : (np, 2) int array
        Rows ``(master, slave)``; slave vertices coincide with their master
        up to a translation along one axis.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: tuple
    periodic_pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges, self.periodic_pairs):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def signed_areas(self):
        """Signed area of each triangle (positive for CCW orientation)."""
        p = self.vertices
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def labels(self):
        """Set of distinct boundary labels."""
        return set(self.boundary_labels)

    def boundary_edges_with_label(self, label):
        """Indices into ``boundary_edges`` carrying ``label``."""
        return np.array([i for i, lab in enumerate(self.boundary_labels) if lab == label], dtype=int)


def _orient_boundary_edges(vertices, triangles, edges):
    """Flip boundary edges so the adjacent triangle lies on their left.

    Directed edges are matched as integer keys ``a * nv + b`` against the
    sorted keys of the triangles' counterclockwise sides.
    """
    nv = len(vertices)
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    # closed by a key above every edge's, so that a search never runs off the end
    sides = np.sort(np.append(triangles * nv + np.roll(triangles, -1, axis=1), nv * nv))

    def is_side(a, b):
        key = a * nv + b
        return sides[np.searchsorted(sides, key)] == key

    forward = is_side(edges[:, 0], edges[:, 1])
    backward = is_side(edges[:, 1], edges[:, 0])
    bad = np.flatnonzero(~(forward | backward))
    if bad.size:
        a, b = edges[bad[0]]
        raise MeshFormatError(f"boundary edge ({a}, {b}) does not belong to any triangle")
    return np.where(forward[:, None], edges, edges[:, ::-1])


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
    labels = ("bottom", "top") * nx + ("right", "left") * ny
    boundary_edges = _orient_boundary_edges(vertices, triangles, edges)
    return Mesh(vertices=vertices, triangles=triangles,
                boundary_edges=boundary_edges, boundary_labels=tuple(labels))


def _parse_counts(line, nfields, what, lineno):
    parts = line.split()
    if len(parts) < nfields:
        raise MeshFormatError(f"{what} header at line {lineno}: expected {nfields} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts[:nfields]]
    except ValueError as exc:
        raise MeshFormatError(f"{what} header at line {lineno}: {exc}") from exc


def _data_lines(text):
    """Yield (lineno, line) skipping blanks and '#' comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_triangle_mesh(node_text, ele_text, boundary_text, marker_labels=None):
    """Build a :class:`Mesh` from Triangle-generator text files.

    ``marker_labels`` maps integer boundary markers to label strings; markers
    without an entry become ``"marker<k>"``.  Triangles are reoriented to CCW;
    malformed counts, dangling vertex indices, and zero-area triangles raise
    :class:`MeshFormatError` with the offending line number.
    """
    marker_labels = dict(marker_labels or {})

    lines = _data_lines(node_text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MeshFormatError("empty .node input") from None
    nv, dim, nattr, nmark = _parse_counts(header, 4, ".node", lineno)
    if dim != 2:
        raise MeshFormatError(f".node at line {lineno}: expected dimension 2, got {dim}")
    vertices = np.zeros((nv, 2))
    first_index = None
    for k in range(nv):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise MeshFormatError(f".node: expected {nv} vertices, file ended after {k}") from None
        parts = line.split()
        if len(parts) < 3 + nattr:
            raise MeshFormatError(f".node at line {lineno}: expected index, x, y")
        idx = int(parts[0])
        if first_index is None:
            first_index = idx
            if first_index not in (0, 1):
                raise MeshFormatError(f".node at line {lineno}: first vertex index must be 0 or 1")
        row = idx - first_index
        if row != k:
            raise MeshFormatError(f".node at line {lineno}: vertex indices must be consecutive")
        vertices[row] = [float(parts[1]), float(parts[2])]
    base = first_index or 0

    lines = _data_lines(ele_text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MeshFormatError("empty .ele input") from None
    nt, npe, _ = _parse_counts(header, 3, ".ele", lineno)
    if npe != 3:
        raise MeshFormatError(f".ele at line {lineno}: only 3-node triangles are supported, got {npe}")
    triangles = np.zeros((nt, 3), dtype=int)
    for k in range(nt):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise MeshFormatError(f".ele: expected {nt} triangles, file ended after {k}") from None
        parts = line.split()
        if len(parts) < 4:
            raise MeshFormatError(f".ele at line {lineno}: expected index and three vertices")
        tri = np.array([int(parts[1]), int(parts[2]), int(parts[3])]) - base
        if tri.min() < 0 or tri.max() >= nv:
            raise MeshFormatError(f".ele at line {lineno}: vertex index out of range (have {nv} vertices)")
        triangles[k] = tri

    # fix orientation and reject degenerate triangles
    p = vertices
    d1 = p[triangles[:, 1]] - p[triangles[:, 0]]
    d2 = p[triangles[:, 2]] - p[triangles[:, 0]]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    scale = np.abs(areas).max() if nt else 1.0
    bad = np.flatnonzero(np.abs(areas) <= 1e-14 * scale)
    if bad.size:
        raise MeshFormatError(f".ele: triangle {bad[0]} has zero area")
    flip = areas < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    lines = _data_lines(boundary_text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MeshFormatError("empty boundary input") from None
    nb, _ = _parse_counts(header, 2, "boundary", lineno)
    edges = np.zeros((nb, 2), dtype=int)
    labels = []
    for k in range(nb):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise MeshFormatError(f"boundary: expected {nb} edges, file ended after {k}") from None
        parts = line.split()
        if len(parts) < 4:
            raise MeshFormatError(f"boundary at line {lineno}: expected index, v1, v2, marker")
        e = np.array([int(parts[1]), int(parts[2])]) - base
        if e.min() < 0 or e.max() >= nv:
            raise MeshFormatError(f"boundary at line {lineno}: vertex index out of range")
        edges[k] = e
        marker = int(parts[3])
        labels.append(marker_labels.get(marker, f"marker{marker}"))

    boundary_edges = _orient_boundary_edges(vertices, triangles, edges)
    return Mesh(vertices=vertices, triangles=triangles,
                boundary_edges=boundary_edges, boundary_labels=tuple(labels))


def identify_periodic(mesh, axis, tolerance=None):
    """Pair opposite-boundary vertices along ``axis`` ("x" or "y").

    Master vertices sit on the low side (x or y minimum), slaves on the high
    side; pairs are appended to any already present (so calling once per axis
    yields a doubly periodic mesh).  Raises ``ValueError`` listing the
    coordinates of any vertex that has no partner within ``tolerance``
    (default ``1e-8 *`` domain extent along the axis).
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    c = 0 if axis == "x" else 1
    other = 1 - c
    coords = mesh.vertices
    boundary_vertices = np.unique(mesh.boundary_edges)
    lo, hi = coords[:, c].min(), coords[:, c].max()
    extent = hi - lo
    if tolerance is None:
        tolerance = 1e-8 * extent
    on_lo = boundary_vertices[np.abs(coords[boundary_vertices, c] - lo) <= tolerance]
    on_hi = boundary_vertices[np.abs(coords[boundary_vertices, c] - hi) <= tolerance]
    if on_lo.size != on_hi.size:
        raise ValueError(
            f"periodic matching along {axis}: {on_lo.size} vertices on the low side "
            f"but {on_hi.size} on the high side"
        )
    pairs = []
    used = np.zeros(on_hi.size, dtype=bool)
    hi_other = coords[on_hi, other]
    for m in on_lo:
        dist = np.abs(hi_other - coords[m, other])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if not np.isfinite(dist[j]) or dist[j] > tolerance:
            x, y = coords[m]
            raise ValueError(
                f"periodic matching along {axis}: vertex at ({x:.12g}, {y:.12g}) "
                f"has no partner within tolerance {tolerance:g}"
            )
        used[j] = True
        pairs.append((int(m), int(on_hi[j])))
    new_pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    all_pairs = np.vstack([mesh.periodic_pairs, new_pairs])
    return replace(mesh, periodic_pairs=all_pairs)


_BUNDLED = {
    "unit_square": ("unit_square", {1: "left", 2: "right", 3: "bottom", 4: "top"}),
    "cylinder": ("cylinder_coarse", {1: "inflow", 2: "outflow", 3: "wall", 4: "cylinder"}),
}


def load_bundled_mesh(name):
    """Load a mesh shipped with the package: ``"unit_square"`` or ``"cylinder"``.

    The cylinder mesh is a coarse pre-generated triangulation of the
    2.2 x 0.41 channel with a polygonal approximation of the radius-0.05
    hole centered at (0.2, 0.2); labels are ``inflow``/``outflow``/``wall``/
    ``cylinder``.
    """
    try:
        stem, labels = _BUNDLED[name]
    except KeyError:
        raise ValueError(f"no bundled mesh named {name!r}; available: {sorted(_BUNDLED)}") from None
    data = resources.files("flowrom").joinpath("data")
    node = data.joinpath(f"{stem}.node").read_text()
    ele = data.joinpath(f"{stem}.ele").read_text()
    edge = data.joinpath(f"{stem}.edge").read_text()
    return read_triangle_mesh(node, ele, edge, marker_labels=labels)
