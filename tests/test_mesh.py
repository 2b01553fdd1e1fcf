from importlib import resources

import numpy as np
import pytest

from flowrom.mesh import (
    MeshFormatError,
    _orient_boundary_edges,
    identify_periodic,
    load_bundled_mesh,
    read_triangle_mesh,
    uniform_rect_mesh,
)


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


def euler_characteristic(mesh):
    edges = np.sort(
        np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]),
        axis=1,
    )
    ne = np.unique(edges, axis=0).shape[0]
    return mesh.num_vertices - ne + mesh.num_triangles


class TestUniformRectMesh:
    def test_single_cell(self):
        m = uniform_rect_mesh(1, 1)
        assert m.num_vertices == 4
        assert m.num_triangles == 2
        assert np.all(m.signed_areas() > 0)

    def test_counts_32(self):
        m = uniform_rect_mesh(32, 32)
        assert m.num_triangles == 2048
        assert m.num_vertices == 33 * 33
        # h = 1/32 on the unit square
        lengths = np.linalg.norm(
            m.vertices[m.triangles[:, 1]] - m.vertices[m.triangles[:, 0]], axis=1
        )
        assert lengths.min() == pytest.approx(1 / 32)

    def test_counts_96(self):
        m = uniform_rect_mesh(96, 96)
        assert m.num_triangles == 18432

    def test_area_sum(self):
        m = uniform_rect_mesh(7, 3, x_extent=2.0, y_extent=0.5)
        assert m.signed_areas().sum() == pytest.approx(1.0, rel=1e-12)

    def test_boundary_labels_partition(self):
        m = uniform_rect_mesh(4, 5)
        assert m.labels() == {"left", "right", "top", "bottom"}
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
        fixture = load_bundled_mesh("unit_square")
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
        with pytest.raises(MeshFormatError, match="zero area"):
            read_triangle_mesh(node, ele, edge)

    def test_orientation_fixed(self):
        node = "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
        ele = "1 3 0\n1 1 3 2\n"  # clockwise on purpose
        edge = "3 1\n1 1 2 1\n2 2 3 1\n3 3 1 1\n"
        m = read_triangle_mesh(node, ele, edge)
        assert np.all(m.signed_areas() > 0)

    def test_boundary_edge_outside_every_triangle(self):
        # the unit square cut along (1, 3): the other diagonal is no triangle side
        node = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"
        ele = "2 3 0\n1 1 2 3\n2 1 3 4\n"
        edge = "2 1\n1 1 2 1\n2 2 4 1\n"
        with pytest.raises(MeshFormatError, match=r"boundary edge \(1, 3\) does not belong"):
            read_triangle_mesh(node, ele, edge)

    def test_malformed_header(self):
        with pytest.raises(MeshFormatError):
            read_triangle_mesh("oops\n", "1 3 0\n1 1 2 3\n", "0 0\n")


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
        area = mesh.signed_areas().sum()
        exact = 2.2 * 0.41 - np.pi * 0.05**2
        assert abs(area - exact) / exact < 0.005

    def test_element_count_range(self, mesh):
        assert 1500 <= mesh.num_triangles <= 3000

    def test_euler_characteristic_one_hole(self, mesh):
        assert euler_characteristic(mesh) == 0

    def test_labels(self, mesh):
        assert mesh.labels() == {"inflow", "outflow", "wall", "cylinder"}

    def test_boundary_orientation_matches_loop_reference(self, mesh):
        text = resources.files("flowrom").joinpath("data", "cylinder_coarse.edge").read_text()
        raw = np.array([line.split()[1:3] for line in text.splitlines()[1:] if line.strip()], dtype=int)
        raw -= 1  # the bundled files are 1-based
        want = loop_orient(mesh.triangles, raw)
        assert np.array_equal(mesh.boundary_edges, want)
        flipped = raw.copy()
        flipped[::2] = flipped[::2, ::-1]
        assert np.array_equal(_orient_boundary_edges(mesh.vertices, mesh.triangles, flipped), want)

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
            identify_periodic(broken, axis="x", tolerance=1e-8)
