"""Exact-rational region and table tests.

All expected values are exact fractions checked with ``==``; the pinned
constants were verified against the closed-form definitions by direct
substitution.
"""

from fractions import Fraction as F

import pytest

from xsdof import regions
from xsdof.errors import InvalidInput, RegimeError


def reference_hull(points):
    """Convex hull in CCW order starting from the lexicographically least point.

    Exact Graham-style scan over Fractions; collinear midpoints are dropped
    so the vertex list is canonical.  The region constructors write their
    vertices in closed form; this is the general construction they must
    agree with.
    """
    pts = sorted(set((F(x), F(y)) for x, y in points))
    if len(pts) <= 1:
        return tuple(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1:
                (x1, y1), (x2, y2) = out[-2], out[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    # rotate so (0,0) (always present for our regions) comes first
    if (F(0), F(0)) in hull:
        i = hull.index((F(0), F(0)))
        hull = hull[i:] + hull[:i]
    return tuple(hull)


def reference_contains(vertices, point):
    """Membership in the convex hull of counterclockwise ``vertices`` by an
    exact edge walk: inside iff never strictly right of an edge.  The
    general construction :meth:`RegionPolygon.contains_point`'s two line
    inequalities must agree with."""
    x, y = F(point[0]), F(point[1])
    if len(vertices) == 1:
        return (x, y) == vertices[0]
    verts = list(vertices)
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) < 0:
            return False
    return True


def mirrored(poly):
    """The vertices of ``poly`` reflected across the diagonal y = x, in the
    counterclockwise hull order the region constructors use."""
    return reference_hull((y, x) for x, y in poly.vertices)


class TestDs:
    @pytest.mark.parametrize(
        "n,mp,want",
        [
            (3, 4, F(12, 13)),
            (4, 8, F(8, 3)),
            (3, 2, F(0)),
            (3, 3, F(0)),
            (4, 6, F(4 * 6 * 2, 16 + 12)),
        ],
    )
    def test_values(self, n, mp, want):
        assert regions.ds(n, mp) == want

    def test_branch_agreement_both_boundaries(self):
        # the middle branch formula meets the packaged function and both
        # neighbouring branches at the joints
        for n in range(1, 9):
            mid = lambda mp: F(n * mp * (mp - n), n * n + mp * (mp - n))
            assert mid(n) == F(0) == regions.ds(n, n) == regions.ds(n, n - 1)
            assert mid(2 * n) == F(2 * n, 3) == regions.ds(n, 2 * n) == regions.ds(n, 2 * n + 1)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            regions.ds(0, 1)


class TestDsLocal:
    @pytest.mark.parametrize(
        "n,mp,want",
        [
            (3, 4, F(16, 27)),
            (4, 8, F(8, 3)),
            (5, 4, F(0)),
            (3, 3, F(0)),
        ],
    )
    def test_values(self, n, mp, want):
        assert regions.ds_local(n, mp) == want

    def test_lower_boundary_agrees(self):
        for n in range(1, 9):
            mid = lambda mp: F(mp * mp * (mp - n), 2 * n * n + (mp - n) * (3 * mp - n))
            assert mid(n) == F(0) == regions.ds_local(n, n)

    def test_upper_boundary_jump_is_the_known_formula_gap(self):
        # The middle branch approaches 4n/7 at m'=2n while the saturation
        # branch is 2n/3; the function returns the saturation value there.
        for n in range(1, 9):
            mid = lambda mp: F(mp * mp * (mp - n), 2 * n * n + (mp - n) * (3 * mp - n))
            assert mid(2 * n) == F(4 * n, 7)
            assert regions.ds_local(n, 2 * n) == F(2 * n, 3)


class TestSdofRegion:
    def test_corners_2_3(self):
        poly = regions.sdof_region(2, 3, "asym-fb-dcsit")
        assert poly.labels["axis_rx1"] == (F(12, 13), F(0))
        assert poly.labels["symmetric"] == (F(3, 4), F(3, 4))
        assert poly.labels["axis_rx2"] == (F(0), F(12, 13))

    def test_corners_4_4(self):
        poly = regions.sdof_region(4, 4, "sym-fb")
        assert poly.labels["axis_rx1"] == (F(8, 3), F(0))
        assert poly.labels["symmetric"] == (F(2), F(2))

    def test_degenerate_is_origin(self):
        for model in ("asym-fb-dcsit", "sym-fb", "asym-fb"):
            poly = regions.sdof_region(1, 3, model)
            assert poly.vertices == ((F(0), F(0)),)
        # boundary 2m = n resolves identically (d = 0 either way)
        assert regions.sdof_region(2, 4, "asym-fb-dcsit").vertices == ((F(0), F(0)),)

    def test_feedback_only_corner_and_flag(self):
        poly = regions.sdof_region(2, 3, "asym-fb")
        assert poly.labels["axis_rx1"] == (F(16, 27), F(0))
        assert poly.labels["symmetric"] == (F(16, 31), F(16, 31))
        flag = poly.discrepancy
        assert flag.point == (F(4, 7), F(4, 7))  # the scheme point
        assert flag.intersection_point == (F(16, 31), F(16, 31))

    def test_symmetric_models_match(self):
        for m, n in [(2, 3), (3, 4), (4, 4), (1, 1)]:
            a = regions.sdof_region(m, n, "asym-fb-dcsit")
            b = regions.sdof_region(m, n, "sym-fb")
            assert a.vertices == b.vertices

    def test_diagonal_symmetry(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for model in ("asym-fb-dcsit", "asym-fb"):
                    poly = regions.sdof_region(m, n, model)
                    assert mirrored(poly) == poly.vertices
                poly = regions.dof_region(m, n)
                assert mirrored(poly) == poly.vertices

    def test_vertices_are_the_hull_of_the_corners(self):
        # the closed-form vertex list equals the convex hull of the origin and
        # the labelled corners, collinear symmetric points dropped
        models = (regions.ASYM_FB_DCSIT, regions.SYM_FB, regions.ASYM_FB,
                  regions.ASYM_FB_DCSIT_TX1)
        for m in range(1, 13):
            for n in range(1, 13):
                polys = [regions.sdof_region(m, n, model) for model in models]
                for poly in polys + [regions.dof_region(m, n)]:
                    corners = [(F(0), F(0))] + list(poly.labels.values())
                    assert poly.vertices == reference_hull(corners), (m, n, poly.model)

    def test_membership_matches_the_edge_walk(self):
        # every vertex, its neighbours a small step off it on either axis,
        # and the midpoints of the edges (on the boundary) and of the
        # diagonals (inside), against the edge walk over the vertices and
        # over their mirror; the 720 polygons are 121 distinct (d, mx)
        models = (regions.ASYM_FB_DCSIT, regions.SYM_FB, regions.ASYM_FB,
                  regions.ASYM_FB_DCSIT_TX1)
        step = F(1, 1000)
        seen = set()
        for m in range(1, 13):
            for n in range(1, 13):
                polys = [regions.sdof_region(m, n, model) for model in models]
                polys.append(regions.dof_region(m, n))
                for poly in polys:
                    if (poly.d, poly.mx) in seen:
                        continue
                    seen.add((poly.d, poly.mx))
                    verts = poly.vertices
                    points = [(x + dx, y + dy) for x, y in verts
                              for dx, dy in ((0, 0), (step, 0), (-step, 0), (0, step), (0, -step))]
                    points += [((x1 + x2) / 2, (y1 + y2) / 2) for x1, y1 in verts for x2, y2 in verts]
                    for point in points:
                        got = poly.contains_point(point)
                        assert got == reference_contains(verts, point), (m, n, poly.model, point)
                        assert got == reference_contains(mirrored(poly), point), (
                            m, n, poly.model, point)
        assert len(seen) == 121

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidInput):
            regions.sdof_region(2, 3, "nonsense")


class TestDofRegion:
    @pytest.mark.parametrize(
        "m,n,sym",
        [
            (2, 3, F(12, 7)),
            (4, 4, F(8, 3)),
            (1, 3, F(1)),
        ],
    )
    def test_symmetric_corner(self, m, n, sym):
        poly = regions.dof_region(m, n)
        assert poly.labels["symmetric"] == (sym, sym)
        assert regions.dof_symmetric_corner(m, n) == (sym, sym)

    def test_axis_corner(self):
        assert regions.dof_region(2, 3).labels["axis_rx1"] == (F(3), F(0))
        assert regions.dof_region(1, 3).labels["axis_rx1"] == (F(2), F(0))

    def test_degenerate_symmetric_point_on_boundary(self):
        # at 2m <= n the two inequalities coincide; (m, m) sits on the edge
        poly = regions.dof_region(1, 3)
        assert poly.contains_point((F(1), F(1)))
        assert not poly.contains_point((F(1), F(1) + F(1, 1000)))


class TestSymmetricCorner:
    def test_closed_form_matches_intersection(self):
        for m, n in [(2, 3), (3, 4), (4, 4), (5, 3), (1, 1)]:
            corner = regions.symmetric_corner(m, n, "asym-fb-dcsit")
            assert corner.point == corner.intersection_point
            assert not corner.discrepancy

    def test_values(self):
        assert regions.symmetric_corner(2, 3, "asym-fb-dcsit").point == (F(3, 4), F(3, 4))
        assert regions.symmetric_corner(4, 4, "sym-fb").point == (F(2), F(2))
        assert regions.symmetric_corner(2, 3, "asym-fb").point == (F(4, 7), F(4, 7))

    def test_feedback_only_discrepancy_flag(self):
        corner = regions.symmetric_corner(2, 3, "asym-fb")
        assert corner.discrepancy
        assert corner.intersection_point == (F(16, 31), F(16, 31))
        # no discrepancy once the bound is tight (m >= n)
        corner = regions.symmetric_corner(4, 4, "asym-fb")
        assert not corner.discrepancy
        assert corner.point == (F(2), F(2))

    def test_degenerate_refused(self):
        with pytest.raises(RegimeError):
            regions.symmetric_corner(1, 3, "asym-fb-dcsit")


class TestTotals:
    @pytest.mark.parametrize(
        "m,n,want",
        [(4, 4, F(4)), (2, 3, F(3, 2)), (1, 3, F(0)), (2, 4, F(0)), (3, 4, F(8, 3))],
    )
    def test_total_sdof(self, m, n, want):
        assert regions.total_sdof(m, n) == want

    def test_branch_agreement(self):
        for n in range(1, 7):
            # 2m = n joint: both branches give 0 (n even)
            if n % 2 == 0:
                m = n // 2
                assert F(n * (2 * m - n), m) == F(0) == regions.total_sdof(m, n)
            # m = n joint: mid and saturation branches agree at n
            assert F(n * (2 * n - n), n) == F(n) == regions.total_sdof(n, n)
            assert F(4 * n * n, 2 * n + n) == F(4 * n, 3) == regions.total_dof_fb_dcsit(n, n)

    def test_table_rows(self):
        rows = regions.table1(4, range(1, 9))
        by_m = {r.m: r for r in rows}
        assert by_m[3].total_sdof == F(8, 3)
        assert by_m[3].total_dof_fb_dcsit == F(24, 5)
        assert by_m[3].total_dof_no_csit == F(4)
        assert by_m[5].total_sdof == F(4)
        assert by_m[5].total_dof_fb_dcsit == F(16, 3)
        assert by_m[5].total_dof_no_csit == F(4)
        assert by_m[2].total_sdof == F(0)
        assert [r.total_sdof for r in rows] == [F(0), F(0), F(8, 3), F(4), F(4), F(4), F(4), F(4)]

    def test_table_n1(self):
        row = regions.table1(1, [1])[0]
        assert (row.total_sdof, row.total_dof_fb_dcsit, row.total_dof_no_csit) == (
            F(1),
            F(4, 3),
            F(1),
        )


class TestNesting:
    def test_polygon_containment_sweep(self):
        for m in range(1, 7):
            for n in range(1, 7):
                inner = regions.sdof_region(m, n, "asym-fb")
                middle = regions.sdof_region(m, n, "asym-fb-dcsit")
                outer = regions.dof_region(m, n)
                assert middle.contains_polygon(inner), (m, n)
                assert outer.contains_polygon(middle), (m, n)

    def test_containment_is_strict_where_expected(self):
        # mid regime: the feedback-only region misses the delayed-CSIT corner
        inner = regions.sdof_region(2, 3, "asym-fb")
        assert not inner.contains_point((F(3, 4), F(3, 4)))

    def test_contains_point_edges(self):
        poly = regions.sdof_region(2, 3, "asym-fb-dcsit")
        assert poly.contains_point((F(0), F(0)))
        assert poly.contains_point((F(3, 4), F(3, 4)))
        assert not poly.contains_point((F(3, 4) + F(1, 10000), F(3, 4)))
        assert not poly.contains_point((F(-1, 10), F(0)))
