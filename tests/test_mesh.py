from importlib import resources

import numpy as np
import pytest

from flowrom.fem import TaylorHoodSpace
from flowrom.mesh import (
    MeshFormatError,
    _build_mesh,
    identify_periodic,
    load_bundled_mesh,
    read_triangle_mesh,
    uniform_rect_mesh,
)

from conftest import signed_areas


# ----------------------------------------------------------------------
# loop references: the element-by-element construction the vectorized
# mesh code must reproduce exactly

def loop_orient(triangles, edges):
    directed = set()
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed.add((int(a), int(b)))
    out = []
    for a, b in edges:
        a, b = int(a), int(b)
        assert (a, b) in directed or (b, a) in directed
        out.append((a, b) if (a, b) in directed else (b, a))
    return np.array(out, dtype=int)


def loop_rect_mesh(nx, ny):
    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    edges, labels = [], []
    for i in range(nx):
        edges += [(vid(i, 0), vid(i + 1, 0)), (vid(i + 1, ny), vid(i, ny))]
        labels += ["bottom", "top"]
    for j in range(ny):
        edges += [(vid(nx, j), vid(nx, j + 1)), (vid(0, j + 1), vid(0, j))]
        labels += ["right", "left"]
    triangles = np.array(tris, dtype=int)
    return triangles, loop_orient(triangles, edges), tuple(labels)


def loop_edge_table(mesh):
    """Global edges as sorted pairs in lexicographic order, and each triangle's
    local edges (local edge i opposite vertex i), by dicts and loops."""
    sides = [[tuple(sorted((int(t[a]), int(t[b])))) for a, b in ((1, 2), (2, 0), (0, 1))]
             for t in mesh.triangles]
    edges = sorted({e for row in sides for e in row})
    edge_id = {e: i for i, e in enumerate(edges)}
    return np.array(edges, dtype=int), np.array([[edge_id[e] for e in row] for row in sides], dtype=int)


def loop_periodic_pairs(mesh, axis):
    """New periodic pairs along ``axis``: each low-side vertex, in vertex
    order, takes the nearest high-side vertex not yet taken."""
    c = 0 if axis == "x" else 1
    coords = mesh.vertices
    boundary_vertices = np.unique(mesh.boundary_edges)
    lo, hi = coords[:, c].min(), coords[:, c].max()
    tolerance = 1e-8 * (hi - lo)
    on_lo = boundary_vertices[np.abs(coords[boundary_vertices, c] - lo) <= tolerance]
    on_hi = boundary_vertices[np.abs(coords[boundary_vertices, c] - hi) <= tolerance]
    pairs, used = [], np.zeros(on_hi.size, dtype=bool)
    for m in on_lo:
        dist = np.abs(coords[on_hi, 1 - c] - coords[m, 1 - c])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        assert dist[j] <= tolerance
        used[j] = True
        pairs.append((int(m), int(on_hi[j])))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def euler_characteristic(mesh):
    edges = np.sort(
        np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]),
        axis=1,
    )
    ne = np.unique(edges, axis=0).shape[0]
    return mesh.num_vertices - ne + len(mesh.triangles)


class TestUniformRectMesh:
    def test_single_cell(self):
        m = uniform_rect_mesh(1, 1)
        assert m.num_vertices == 4
        assert len(m.triangles) == 2
        assert np.all(signed_areas(m) > 0)

    def test_counts_32(self):
        m = uniform_rect_mesh(32, 32)
        assert len(m.triangles) == 2048
        assert m.num_vertices == 33 * 33
        # h = 1/32 on the unit square
        lengths = np.linalg.norm(
            m.vertices[m.triangles[:, 1]] - m.vertices[m.triangles[:, 0]], axis=1
        )
        assert lengths.min() == pytest.approx(1 / 32)

    def test_counts_96(self):
        m = uniform_rect_mesh(96, 96)
        assert len(m.triangles) == 18432

    def test_area_sum(self):
        m = uniform_rect_mesh(7, 3, x_extent=2.0, y_extent=0.5)
        assert signed_areas(m).sum() == pytest.approx(1.0, rel=1e-12)

    def test_boundary_labels_partition(self):
        m = uniform_rect_mesh(4, 5)
        assert set(m.boundary_labels) == {"left", "right", "top", "bottom"}
        assert len(m.boundary_labels) == 2 * (4 + 5)

    def test_euler_characteristic_no_hole(self):
        m = uniform_rect_mesh(6, 4)
        assert euler_characteristic(m) == 1

    @pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 7), (8, 5)])
    def test_matches_loop_reference(self, nx, ny):
        m = uniform_rect_mesh(nx, ny, x_extent=1.3, y_extent=0.7)
        triangles, edges, labels = loop_rect_mesh(nx, ny)
        xx, yy = np.meshgrid(np.linspace(0.0, 1.3, nx + 1), np.linspace(0.0, 0.7, ny + 1))
        assert np.array_equal(m.vertices, np.column_stack([xx.ravel(), yy.ravel()]))
        for got, want in ((m.triangles, triangles), (m.boundary_edges, edges)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert m.boundary_labels == labels

    def test_boundary_edges_unique_triangle(self):
        m = uniform_rect_mesh(5, 5)
        directed = {}
        for t, tri in enumerate(m.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                directed[(int(a), int(b))] = t
        for a, b in m.boundary_edges:
            assert (int(a), int(b)) in directed
            assert (int(b), int(a)) not in directed  # boundary: no neighbor


class TestReadTriangleMesh:
    def test_bundled_fixture_matches_generator(self):
        # the two-triangle unit square, once shipped as a bundled fixture
        node = "# two-triangle unit square fixture\n4 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 2\n3 0.0 1.0 1\n4 1.0 1.0 2\n"
        ele = "2 3 0\n1 1 2 4\n2 1 4 3\n"
        edge = "4 1\n1 1 2 3\n2 4 3 4\n3 2 4 2\n4 3 1 1\n"
        fixture = read_triangle_mesh(node, ele, edge,
                                     marker_labels={1: "left", 2: "right", 3: "bottom", 4: "top"})
        built = uniform_rect_mesh(1, 1)
        assert np.array_equal(fixture.vertices, built.vertices)
        assert np.array_equal(fixture.triangles, built.triangles)
        assert np.array_equal(fixture.boundary_edges, built.boundary_edges)
        assert fixture.boundary_labels == built.boundary_labels

    def test_dangling_vertex_index(self):
        node = "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
        ele = "1 3 0\n1 1 2 9\n"
        edge = "0 0\n"
        with pytest.raises(MeshFormatError, match="line 2"):
            read_triangle_mesh(node, ele, edge)

    def test_zero_area_triangle(self):
        node = "3 2 0 0\n1 0 0\n2 1 0\n3 2 0\n"
        ele = "1 3 0\n1 1 2 3\n"
        edge = "0 0\n"
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(node, ele, edge)
        assert str(err.value) == ".ele at line 2: triangle 1 has zero area"

    def test_orientation_fixed(self):
        node = "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
        ele = "1 3 0\n1 1 3 2\n"  # clockwise on purpose
        edge = "3 1\n1 1 2 1\n2 2 3 1\n3 3 1 1\n"
        m = read_triangle_mesh(node, ele, edge)
        assert np.all(signed_areas(m) > 0)

    def test_boundary_edge_outside_every_triangle(self):
        # the unit square cut along (1, 3): the other diagonal is no triangle side
        node = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"
        ele = "2 3 0\n1 1 2 3\n2 1 3 4\n"
        edge = "2 1\n1 1 2 1\n2 2 4 1\n"
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(node, ele, edge)
        assert str(err.value) == "boundary at line 3: boundary edge (2, 4) does not belong to any triangle"

    def test_boundary_edge_inside_the_domain(self):
        # the unit square cut along (1, 3), whose diagonal is listed as boundary
        node = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"
        ele = "2 3 0\n1 1 2 3\n2 1 3 4\n"
        edge = "5 1\n1 1 2 1\n2 2 3 1\n3 3 4 1\n4 4 1 1\n5 3 1 2\n"
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(node, ele, edge)
        assert str(err.value) == "boundary at line 6: boundary edge (3, 1) is shared by more than one triangle"

    def test_malformed_header(self):
        with pytest.raises(MeshFormatError):
            read_triangle_mesh("oops\n", "1 3 0\n1 1 2 3\n", "0 0\n")

    NODE = "# unit triangle\n3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
    ELE = "1 3 0\n1 1 2 3\n"
    EDGE = "3 1\n1 1 2 1\n2 2 3 1\n3 3 1 1\n"

    @pytest.mark.parametrize("which, text, message", [
        ("node", "", "empty .node input"),
        ("node", "# unit triangle\n3 2 0 0\n1 0 0\n\n2 1 0\n", ".node: expected 3 vertices, file ended after 2"),
        ("node", "# unit triangle\n3 2 0 0\n1 0 0\n2 1\n3 0 1\n", ".node at line 4: expected index, x, y"),
        ("node", "3 2 1 0\n1 0 0 7\n2 1 0\n3 0 1 7\n", ".node at line 3: expected index, x, y"),
        ("node", "3 2 0 0\n1 0 0\n\n2 1\n", ".node at line 4: expected index, x, y"),
        ("ele", "", "empty .ele input"),
        ("ele", "2 3 0\n1 1 2 3\n", ".ele: expected 2 triangles, file ended after 1"),
        ("ele", "1 3 0\n# the only triangle\n1 1 2\n", ".ele at line 3: expected index and three vertices"),
        ("edge", "", "empty boundary input"),
        ("edge", "3 1\n1 1 2 1\n", "boundary: expected 3 edges, file ended after 1"),
        ("edge", "3 1\n1 1 2 1\n2 2 3\n3 3 1 1\n", "boundary at line 3: expected index, v1, v2, marker"),
    ])
    def test_truncated_and_short_record_messages(self, which, text, message):
        files = {"node": self.NODE, "ele": self.ELE, "edge": self.EDGE}
        files[which] = text
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(files["node"], files["ele"], files["edge"])
        assert str(err.value) == message

    @pytest.mark.parametrize("which, text, message", [
        ("node", "# unit triangle\n-3 2 0 0\n1 0 0\n", ".node header at line 2: negative record count -3"),
        ("ele", "-1 3 0\n1 1 2 3\n", ".ele header at line 1: negative record count -1"),
        ("edge", "-3 1\n1 1 2 1\n", "boundary header at line 1: negative record count -3"),
    ], ids=["node", "ele", "edge"])
    def test_negative_record_count(self, which, text, message):
        files = {"node": self.NODE, "ele": self.ELE, "edge": self.EDGE}
        files[which] = text
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(files["node"], files["ele"], files["edge"])
        assert str(err.value) == message

    @pytest.mark.parametrize("which, text, message", [
        ("node", "3 2 -1 0\n1 0 0\n2 1 0\n3 0 1\n", ".node header at line 1: negative attribute count -1"),
        ("node", "# unit triangle\n3 2 0 -1\n1 0 0\n2 1 0\n3 0 1\n",
         ".node header at line 2: negative boundary marker count -1"),
        ("node", "3 -2 0 0\n1 0 0\n2 1 0\n3 0 1\n", ".node header at line 1: negative dimension -2"),
        ("ele", "1 -3 0\n1 1 2 3\n", ".ele header at line 1: negative nodes per triangle -3"),
        ("ele", "1 3 -2\n1 1 2 3\n", ".ele header at line 1: negative attribute count -2"),
        ("edge", "3 -1\n1 1 2 1\n2 2 3 1\n3 3 1 1\n", "boundary header at line 1: negative boundary marker count -1"),
    ], ids=["node_attributes", "node_markers", "node_dimension", "ele_nodes", "ele_attributes", "edge_markers"])
    def test_negative_header_field(self, which, text, message):
        # every count field is checked, not only the record count: a negative
        # attribute count once sliced the coordinates short (IndexError)
        files = {"node": self.NODE, "ele": self.ELE, "edge": self.EDGE}
        files[which] = text
        with pytest.raises(MeshFormatError) as err:
            read_triangle_mesh(files["node"], files["ele"], files["edge"])
        assert str(err.value) == message

    def test_comments_extra_fields_and_trailing_lines(self):
        # comments, blank lines, attribute and marker columns, and lines past
        # the record count are read as the line-by-line reader read them
        node = "3 2 1 1  # header\n\n0 0 0 5 1\n# between\n1 1.5 0 6 1 # tail\n2 0 1e0 7 0\nextra line\n"
        ele = "1 3 1\n0 0 2 1 9\n\n"
        edge = "2 1\n0 0 1 3\n1 2 0 4\n2 1 2 3 ignored\n"
        m = read_triangle_mesh(node, ele, edge, marker_labels={3: "wall"})
        assert np.array_equal(m.vertices, [[0.0, 0.0], [1.5, 0.0], [0.0, 1.0]])
        assert np.array_equal(m.triangles, [[0, 1, 2]])
        assert m.boundary_labels == ("wall", "marker4")

    def test_non_numeric_field_is_format_error(self):
        with pytest.raises(MeshFormatError, match=r"^\.ele: "):
            read_triangle_mesh(self.NODE, "1 3 0\n1 1 2 x\n", self.EDGE)

    def test_zero_boundary_count_reads(self):
        m = read_triangle_mesh(self.NODE, self.ELE, "0 1  # no boundary edges\n")
        assert m.boundary_edges.shape == (0, 2) and m.boundary_edges.dtype == np.dtype(int)
        assert m.boundary_labels == ()

    def test_well_formed_counterpart_reads(self):
        m = read_triangle_mesh(self.NODE, self.ELE, self.EDGE)
        assert m.num_vertices == 3 and len(m.triangles) == 1
        assert m.boundary_labels == ("marker1",) * 3


class TestEdgeTable:
    @pytest.mark.parametrize("nx, ny, periodic", [(1, 1, ""), (3, 2, ""), (5, 7, "x"), (6, 6, "xy")])
    def test_rect_matches_loop_reference(self, nx, ny, periodic):
        mesh = uniform_rect_mesh(nx, ny)
        for axis in periodic:
            mesh = identify_periodic(mesh, axis)
        space = TaylorHoodSpace(mesh)
        edges, cell_edges = loop_edge_table(mesh)
        for got, want in ((space.edges, edges), (space.cell_edges, cell_edges)):
            assert np.array_equal(got, want)

    def test_cylinder_matches_loop_reference(self, cylinder_mesh):
        space = TaylorHoodSpace(cylinder_mesh)
        edges, cell_edges = loop_edge_table(cylinder_mesh)
        assert np.array_equal(space.edges, edges)
        assert np.array_equal(space.cell_edges, cell_edges)
        # local edge i joins the two vertices other than vertex i
        ends = space.edges[space.cell_edges]
        others = np.sort(cylinder_mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]], axis=2)
        assert np.array_equal(ends, others)

    @pytest.mark.parametrize("name", ["rect", "cylinder"])
    def test_boundary_rows_and_cells_match_loop_reference(self, cylinder_mesh, name):
        mesh = cylinder_mesh if name == "cylinder" else uniform_rect_mesh(5, 3)
        edges, _ = loop_edge_table(mesh)
        edge_id = {tuple(e): i for i, e in enumerate(edges.tolist())}
        ccw_side = {}
        for t, tri in enumerate(mesh.triangles.tolist()):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                ccw_side[(a, b)] = t
        for field in ("edges", "cell_edges", "boundary_edge_ids", "boundary_cells"):
            assert getattr(mesh, field).dtype == edges.dtype, field
        assert np.array_equal(mesh.edges, edges)
        for (a, b), e, t in zip(mesh.boundary_edges.tolist(), mesh.boundary_edge_ids, mesh.boundary_cells):
            assert e == edge_id[(min(a, b), max(a, b))]
            assert t == ccw_side[(a, b)]

    def test_space_and_periodic_meshes_share_the_table(self):
        mesh = uniform_rect_mesh(4, 3)
        periodic = identify_periodic(identify_periodic(mesh, "x"), "y")
        for name in ("edges", "cell_edges", "boundary_edge_ids", "boundary_cells"):
            assert getattr(periodic, name) is getattr(mesh, name)
            assert not getattr(mesh, name).flags.writeable
        space = TaylorHoodSpace(periodic)
        assert space.edges is mesh.edges and space.cell_edges is mesh.cell_edges


@pytest.fixture(scope="module")
def cylinder_mesh():
    return load_bundled_mesh("cylinder")


class TestCylinderMesh:
    @pytest.fixture
    def mesh(self, cylinder_mesh):
        return cylinder_mesh

    def test_hole_vertices_on_circle(self, mesh):
        idx = mesh.boundary_edges_with_label("cylinder")
        assert idx.size > 0
        verts = np.unique(mesh.boundary_edges[idx])
        r = np.linalg.norm(mesh.vertices[verts] - np.array([0.2, 0.2]), axis=1)
        assert np.all(np.abs(r - 0.05) < 1e-3)

    def test_area_within_polygonal_defect(self, mesh):
        area = signed_areas(mesh).sum()
        exact = 2.2 * 0.41 - np.pi * 0.05**2
        assert abs(area - exact) / exact < 0.005

    def test_element_count_range(self, mesh):
        assert 1500 <= len(mesh.triangles) <= 3000

    def test_euler_characteristic_one_hole(self, mesh):
        assert euler_characteristic(mesh) == 0

    def test_labels(self, mesh):
        assert set(mesh.boundary_labels) == {"inflow", "outflow", "wall", "cylinder"}

    def test_reader_matches_line_loop_reference(self, mesh):
        # float() and int() per field, as the reader once did, give the same bits
        data = resources.files("flowrom").joinpath("data")
        node, ele, edge = (data.joinpath(f"cylinder_coarse.{ext}").read_text().splitlines()[1:]
                           for ext in ("node", "ele", "edge"))
        vertices = np.array([[float(v) for v in line.split()[1:3]] for line in node])
        triangles = np.array([[int(v) - 1 for v in line.split()[1:4]] for line in ele])
        p = vertices[triangles]
        ccw = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) \
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]) > 0
        triangles[~ccw] = triangles[~ccw][:, [0, 2, 1]]
        names = {1: "inflow", 2: "outflow", 3: "wall", 4: "cylinder"}
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.triangles, triangles)
        assert mesh.boundary_labels == tuple(names[int(line.split()[3])] for line in edge)

    def test_boundary_orientation_matches_loop_reference(self, mesh):
        text = resources.files("flowrom").joinpath("data", "cylinder_coarse.edge").read_text()
        raw = np.array([line.split()[1:3] for line in text.splitlines()[1:] if line.strip()], dtype=int)
        raw -= 1  # the bundled files are 1-based
        want = loop_orient(mesh.triangles, raw)
        assert np.array_equal(mesh.boundary_edges, want)
        flipped = raw.copy()
        flipped[::2] = flipped[::2, ::-1]
        rebuilt = _build_mesh(mesh.vertices, mesh.triangles, flipped, mesh.boundary_labels)
        assert np.array_equal(rebuilt.boundary_edges, want)

    def test_every_third_edge_flipped_on_input(self, mesh):
        data = resources.files("flowrom").joinpath("data")
        node, ele, edge = (data.joinpath(f"cylinder_coarse.{ext}").read_text() for ext in ("node", "ele", "edge"))
        lines = edge.splitlines()
        for k in range(1, len(lines), 3):
            i, a, b, marker = lines[k].split()
            lines[k] = f"{i} {b} {a} {marker}"
        assert lines != edge.splitlines()
        flipped = read_triangle_mesh(node, ele, "\n".join(lines) + "\n",
                                     marker_labels={1: "inflow", 2: "outflow", 3: "wall", 4: "cylinder"})
        assert np.array_equal(flipped.boundary_edges, mesh.boundary_edges)
        assert flipped.boundary_labels == mesh.boundary_labels
        raw = np.array([line.split()[1:3] for line in edge.splitlines()[1:]], dtype=int) - 1
        assert np.array_equal(flipped.boundary_edges, loop_orient(mesh.triangles, raw))

    def test_quality(self, mesh):
        # no sliver triangles: minimum angle above 20 degrees
        p = mesh.vertices
        t = mesh.triangles
        angles = []
        for i in range(3):
            a = p[t[:, i]]
            b = p[t[:, (i + 1) % 3]]
            c = p[t[:, (i + 2) % 3]]
            v1 = b - a
            v2 = c - a
            cosang = np.sum(v1 * v2, axis=1) / (
                np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
            )
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        assert np.min(angles) > 20.0


class TestIdentifyPeriodic:
    @pytest.mark.parametrize("axes", ["x", "y", "xy", "yx"])
    @pytest.mark.parametrize("nx, ny", [(1, 1), (2, 5), (7, 3), (16, 16), (33, 64), (64, 64)])
    def test_matches_loop_reference(self, nx, ny, axes):
        mesh = uniform_rect_mesh(nx, ny, x_extent=1.3, y_extent=0.7)
        want = mesh.periodic_pairs
        for axis in axes:
            want = np.vstack([want, loop_periodic_pairs(mesh, axis)])
            mesh = identify_periodic(mesh, axis)
            assert mesh.periodic_pairs.dtype == want.dtype
            assert np.array_equal(mesh.periodic_pairs, want)

    def test_unit_square_x(self):
        m = identify_periodic(uniform_rect_mesh(4, 3), axis="x")
        assert m.periodic_pairs.shape[0] == 4
        delta = m.vertices[m.periodic_pairs[:, 1]] - m.vertices[m.periodic_pairs[:, 0]]
        assert np.allclose(delta, [1.0, 0.0])

    def test_pair_count_matches_ny(self):
        for ny in (1, 2, 5):
            m = identify_periodic(uniform_rect_mesh(3, ny), axis="x")
            assert m.periodic_pairs.shape[0] == ny + 1

    def test_doubly_periodic(self):
        m = identify_periodic(identify_periodic(uniform_rect_mesh(4, 4), "x"), "y")
        assert m.periodic_pairs.shape[0] == 5 + 5

    def test_unmatched_vertex_reports_coordinates(self):
        m = uniform_rect_mesh(2, 2)
        verts = m.vertices.copy()
        verts.setflags(write=True)
        right = np.flatnonzero(np.isclose(verts[:, 0], 1.0) & np.isclose(verts[:, 1], 0.5))
        verts[right, 1] += 0.2  # push one right-boundary vertex off its trace
        from dataclasses import replace

        broken = replace(m, vertices=verts)
        with pytest.raises(ValueError, match="no partner"):
            identify_periodic(broken, axis="x")
