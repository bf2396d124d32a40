"""Tests for point-cloud distance, union volumes, and strip thickening."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatflat import flats
from fatflat.flats import (
    ConvexBody,
    DegenerateBodyError,
    FlatBox2D,
    FramedStrip2D,
    Isometry,
    ParallelStripsError,
    PointCloud,
    hausdorff_distance,
    hausdorff_distances,
    thicken_strips,
    union_volume,
)
from fatflat.rng import sample_streams


def circle_cloud(radius, count, center=(0.0, 0.0)):
    angles = 2.0 * math.pi * np.arange(count) / count
    points = np.stack([radius * np.cos(angles), radius * np.sin(angles)],
                      axis=1)
    return PointCloud(points + np.asarray(center))


def brute_force_hausdorff(first, second):
    d_xy = max(min(float(np.linalg.norm(x - y)) for y in second.points)
               for x in first.points)
    d_yx = max(min(float(np.linalg.norm(x - y)) for x in first.points)
               for y in second.points)
    return max(d_xy, d_yx)


def directed_sq_max(source, target, rows=512):
    """Max over source of the squared distance to the nearest target point,
    ``rows`` source rows at a time: the two-pass route that the one-pass
    kernel replaced, kept as its exact oracle."""
    worst = 0.0
    for start in range(0, source.shape[0], rows):
        block = source[start:start + rows]
        diff = block[:, None, :] - target[None, :, :]
        nearest = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
        worst = max(worst, float(nearest.max()))
    return worst


def unit_square():
    return ConvexBody([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(sides, radius=1.0):
    angles = 2.0 * math.pi * np.arange(sides) / sides
    return ConvexBody(np.stack([radius * np.cos(angles),
                                radius * np.sin(angles)], axis=1))


class TestPointCloud:
    def test_rows_dimension_and_size(self):
        cloud = PointCloud([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert cloud.dimension == 2
        assert cloud.size == 3

    def test_one_dimensional_input_becomes_column(self):
        cloud = PointCloud([0.0, 1.0, 2.0])
        assert cloud.dimension == 1
        assert cloud.size == 3

    def test_empty_and_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 2)))
        with pytest.raises(ValueError):
            PointCloud([[0.0, math.nan]])

    def test_from_csv(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n")
        cloud = PointCloud.from_csv(path)
        assert cloud.size == 2
        assert np.array_equal(cloud.points, [[0.0, 1.0], [2.0, 3.0]])


class TestHausdorffDistance:
    def test_single_points(self):
        first = PointCloud([[0.0, 0.0]])
        second = PointCloud([[3.0, 4.0]])
        assert hausdorff_distance(first, second) == 5.0

    def test_concentric_circle_samples(self):
        inner = circle_cloud(1.0, 360)
        outer = circle_cloud(2.0, 360)
        distance = hausdorff_distance(inner, outer)
        assert abs(distance - 1.0) <= 2.0 * math.pi / 360.0

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(9)
        first = PointCloud(rng.random((50, 2)))
        second = PointCloud(rng.random((50, 2)))
        fast = hausdorff_distance(first, second)
        assert fast == pytest.approx(brute_force_hausdorff(first, second),
                                     rel=1e-14)

    def test_zero_exactly_for_equal_sets(self):
        rng = np.random.default_rng(4)
        points = rng.random((20, 3))
        cloud = PointCloud(points)
        shuffled = PointCloud(points[rng.permutation(20)])
        assert hausdorff_distance(cloud, shuffled) == 0.0
        assert hausdorff_distance(cloud, cloud) == 0.0

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = PointCloud(rng.normal(size=(8, 2)))
            y = PointCloud(rng.normal(size=(8, 2)))
            z = PointCloud(rng.normal(size=(8, 2)))
            d_xy = hausdorff_distance(x, y)
            d_yx = hausdorff_distance(y, x)
            d_yz = hausdorff_distance(y, z)
            d_xz = hausdorff_distance(x, z)
            assert d_xy == d_yx
            assert d_xy > 0.0
            assert d_xz <= d_xy + d_yz + 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(PointCloud([[0.0, 0.0]]),
                               PointCloud([[0.0, 0.0, 0.0]]))

    def test_memory_bounded_in_both_directions(self):
        # one 512-row block against all 20,000 columns took 353 MB
        rng = np.random.default_rng(9)
        small = PointCloud(rng.normal(size=(600, 3)))
        large = PointCloud(rng.normal(size=(20_000, 3)))
        tracemalloc.start()
        try:
            hausdorff_distance(small, large)
            hausdorff_distance(large, small)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_pass_equals_two_directed_passes_exactly(self, dim):
        # per pair and as a stack of one: pairs of fewer and of more point
        # pairs than one 2^16-pair block, clouds of many blocks of rows or
        # of columns, and grid clouds with ties and duplicates
        distances = (
            lambda x, y: hausdorff_distance(PointCloud(x), PointCloud(y)),
            lambda x, y: float(hausdorff_distances(x[None], y[None])[0]))
        rng = np.random.default_rng(100 + dim)
        sizes = [(1, 1), (1, 600), (600, 1), (7, 13), (511, 3), (512, 40),
                 (513, 513), (600, 257), (90, 600), (700, 4500)]
        for n_first, n_second in sizes:
            for grid in (False, True):
                if grid:
                    x = rng.integers(-3, 4, (n_first, dim)) * 0.5
                    y = rng.integers(-3, 4, (n_second, dim)) * 0.5
                else:
                    scale = 10.0 ** rng.integers(-3, 4)
                    x = rng.normal(size=(n_first, dim)) * scale
                    y = rng.normal(size=(n_second, dim)) + rng.normal(size=dim)
                expected = math.sqrt(max(directed_sq_max(x, y),
                                         directed_sq_max(y, x)))
                for distance in distances:
                    got = distance(x, y)
                    assert got == expected, (n_first, n_second, grid)
                    assert distance(y, x) == expected


class TestHausdorffDistances:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), batch=st.integers(1, 4),
           n_first=st.integers(1, 400), n_second=st.integers(1, 400),
           grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(dim=3, batch=4, n_first=256, n_second=256, grid=False, seed=1)
    @example(dim=1, batch=3, n_first=257, n_second=256, grid=True, seed=2)
    @example(dim=2, batch=2, n_first=400, n_second=330, grid=False, seed=3)
    @example(dim=3, batch=4, n_first=40, n_second=41, grid=True, seed=4)
    def test_equals_per_pair_distance_bit_for_bit(self, dim, batch, n_first,
                                                  n_second, grid, seed):
        # up to 160,000 point pairs per cloud pair: the 2^16-pair blocks
        # hold several pairs, one pair, or a few rows of one pair
        rng = np.random.default_rng(seed)
        if grid:
            firsts = rng.integers(-2, 3, (batch, n_first, dim)) * 0.5
            seconds = rng.integers(-2, 3, (batch, n_second, dim)) * 0.5
        else:
            firsts = rng.normal(size=(batch, n_first, dim))
            seconds = rng.normal(size=(batch, n_second, dim)) * 3.0
        got = hausdorff_distances(firsts, seconds)
        assert got.shape == (batch,)
        for b in range(batch):
            expected = hausdorff_distance(PointCloud(firsts[b]),
                                          PointCloud(seconds[b]))
            assert got[b].tobytes() == np.float64(expected).tobytes()

    def test_memory_of_a_report_stack_is_bounded(self):
        # report-all's 300 pairs of 40-point clouds in R^3 hold 480,000
        # point pairs; one 2^16-pair block of differences is 1.5 MiB
        rng = np.random.default_rng(3)
        firsts = rng.random((300, 40, 3))
        seconds = rng.random((300, 40, 3))
        tracemalloc.start()
        try:
            hausdorff_distances(firsts, seconds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("firsts,seconds", [
        (np.zeros((2, 3, 2)), np.zeros((3, 3, 2))),   # batch sizes differ
        (np.zeros((2, 3, 2)), np.zeros((2, 3, 3))),   # dimensions differ
        (np.zeros((2, 0, 2)), np.zeros((2, 3, 2))),   # empty clouds
        (np.zeros((2, 3, 2)), np.zeros((2, 0, 2))),
        (np.zeros((3, 2)), np.zeros((3, 2))),         # not stacks
        (np.zeros((2, 3, 2)), np.zeros((2, 1, 3, 2))),
    ])
    def test_malformed_stacks_rejected(self, firsts, seconds):
        with pytest.raises(ValueError):
            hausdorff_distances(firsts, seconds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        clouds = np.zeros((2, 3, 2))
        clouds[1, 2, 0] = bad
        with pytest.raises(ValueError):
            hausdorff_distances(clouds, np.zeros((2, 4, 2)))
        with pytest.raises(ValueError):
            hausdorff_distances(np.zeros((2, 4, 2)), clouds)


class TestIsometry:
    def test_pure_translation_part_is_its_norm(self):
        motion = Isometry.translation_by([3.0, 4.0])
        assert motion.translational_part() == pytest.approx(5.0, rel=1e-12)

    def test_rotation_about_any_center_has_zero_part(self):
        for center in (None, (0.5, 0.5), (-2.0, 7.0)):
            motion = Isometry.rotation_2d(0.7, center=center)
            assert motion.translational_part() == pytest.approx(0.0,
                                                                abs=1e-9)

    def test_glide_reflection_keeps_parallel_component(self):
        glide = Isometry(np.array([[1.0, 0.0], [0.0, -1.0]]),
                         np.array([2.0, 0.3]))
        assert glide.translational_part() == pytest.approx(2.0, rel=1e-12)

    def test_apply_moves_points(self):
        quarter = Isometry.rotation_2d(math.pi / 2.0)
        moved = quarter.apply(np.array([[1.0, 0.0]]))
        assert np.allclose(moved, [[0.0, 1.0]], atol=1e-15)

    def test_rotation_about_center_fixes_center(self):
        center = np.array([0.4, -1.2])
        motion = Isometry.rotation_2d(1.1, center=center)
        assert np.allclose(motion.apply(center[None, :]), center[None, :],
                           atol=1e-14)

    def test_non_orthogonal_matrix_rejected(self):
        with pytest.raises(ValueError):
            Isometry(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            Isometry(np.eye(3), np.zeros(2))


class TestConvexBody:
    def test_square_volume_and_membership(self):
        body = unit_square()
        assert body.volume == pytest.approx(1.0, rel=1e-12)
        inside = body.contains(np.array([[0.5, 0.5], [0.999, 0.001]]))
        outside = body.contains(np.array([[1.5, 0.5], [-0.01, 0.5]]))
        assert inside.all()
        assert not outside.any()

    def test_interval_body_in_one_dimension(self):
        body = ConvexBody(np.array([[0.0], [2.0]]))
        assert body.volume == 2.0
        assert body.contains(np.array([[1.5]]))[0]
        assert not body.contains(np.array([[2.5]]))[0]

    def test_tetrahedron_volume(self):
        body = ConvexBody([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert body.volume == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_degenerate_bodies_rejected(self):
        with pytest.raises(DegenerateBodyError):
            ConvexBody([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateBodyError):
            ConvexBody(np.array([[1.0], [1.0]]))

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ValueError):
            ConvexBody(np.eye(4))

    def test_transformed_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unit_square().transformed(Isometry(np.eye(3), np.zeros(3)))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "square.csv"
        path.write_text("0,0\n1,0\n1,1\n0,1\n")
        assert ConvexBody.from_csv(path).volume == pytest.approx(1.0,
                                                                 rel=1e-12)


class TestUnionVolume:
    def test_half_shifted_square_recovers_both_areas(self):
        report = union_volume(unit_square(),
                              Isometry.translation_by([0.5, 0.0]),
                              samples=10 ** 6, seed=0)
        assert report.box_volume == pytest.approx(1.5, rel=1e-12)
        assert abs(report.body_volume - 1.0) <= 3.0 * report.body_error
        assert abs(report.union_volume - 1.5) <= 3.0 * report.union_error
        assert 0.0 < report.body_error < 0.01
        assert report.samples == 10 ** 6

    def test_quarter_turn_about_center_changes_nothing(self):
        motion = Isometry.rotation_2d(math.pi / 2.0, center=(0.5, 0.5))
        report = union_volume(unit_square(), motion, samples=2 * 10 ** 5,
                              seed=3)
        assert report.union_volume == report.body_volume
        assert report.gain == 0.0

    def test_union_never_smaller_than_body(self):
        motions = [Isometry.translation_by([0.2, -0.1]),
                   Isometry.rotation_2d(0.3, center=(0.2, 0.9)),
                   Isometry.translation_by([0.0, 0.0])]
        for seed, motion in enumerate(motions):
            report = union_volume(unit_square(), motion,
                                  samples=10 ** 5, seed=seed)
            assert report.union_volume >= report.body_volume

    def test_nudged_polygon_gain_matches_disk_lens_formula(self):
        shift = 0.01
        report = union_volume(regular_polygon(256),
                              Isometry.translation_by([0.0, shift]),
                              samples=10 ** 6, seed=1)
        # overlap of two unit disks at center distance d is the lens
        # 2 acos(d/2) - (d/2) sqrt(4 - d^2); the union gain over one disk
        # is pi minus that, and a 256-gon tracks the disk to ~1e-4
        lens = (2.0 * math.acos(0.5 * shift)
                - 0.5 * shift * math.sqrt(4.0 - shift * shift))
        expected_gain = math.pi - lens
        assert report.gain > 0.0
        assert report.gain == pytest.approx(expected_gain, abs=1.5e-3)

    def test_repeat_runs_are_bitwise_identical(self):
        motion = Isometry.translation_by([0.3, 0.2])
        first = union_volume(unit_square(), motion, samples=2 * 10 ** 5,
                             seed=11)
        second = union_volume(unit_square(), motion, samples=2 * 10 ** 5,
                              seed=11)
        assert first.body_volume == second.body_volume
        assert first.union_volume == second.union_volume
        assert first.body_error == second.body_error

    def test_frozen_estimates_bit_for_bit(self):
        # float.hex() of the estimates before the ball test existed: the
        # prefilter settles samples exactly as the facet test did
        disk = union_volume(regular_polygon(256),
                            Isometry.translation_by([0.0, 0.01]),
                            samples=10 ** 6, seed=0)
        assert disk.body_volume.hex() == "0x1.91e8068f1053ap+1"
        assert disk.union_volume.hex() == "0x1.947d8f77d7a7ep+1"
        square = union_volume(unit_square(),
                              Isometry.translation_by([0.5, 0.0]),
                              samples=10 ** 6, seed=0)
        assert square.body_volume.hex() == "0x1.ff61672324c84p-1"
        assert square.union_volume.hex() == "0x1.8000000000000p+0"

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError):
            union_volume(unit_square(), Isometry.translation_by([0.1, 0.0]),
                         samples=0)

    @pytest.mark.parametrize("samples", [16385, 65537, 100001])
    @pytest.mark.parametrize("body,motion", [
        (regular_polygon(256), Isometry.translation_by([0.0, 0.01])),
        (unit_square(), Isometry.rotation_2d(math.pi / 2.0,
                                             center=(0.5, 0.5))),
        (ConvexBody([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]]),
         Isometry.translation_by([0.1, 0.2, 0.0])),
    ], ids=["disk256", "quarter_turn", "tetrahedron"])
    def test_equals_whole_chunk_counts_bit_for_bit(self, body, motion,
                                                   samples):
        report = union_volume(body, motion, samples=samples, seed=5)
        moved = body.transformed(motion)
        lo = np.minimum(body.bounding_box()[0], moved.bounding_box()[0])
        span = np.maximum(body.bounding_box()[1],
                          moved.bounding_box()[1]) - lo
        at = sample_streams(5)
        body_hits = union_hits = 0
        for start in range(0, samples, flats._CHUNK):
            hits = whole_chunk_counts(at(start),
                                      min(flats._CHUNK, samples - start),
                                      lo, span, body, moved)
            body_hits += hits[0]
            union_hits += hits[1]
        box = float(np.prod(span))
        assert report.body_volume == box * (body_hits / samples)
        assert report.union_volume == box * (union_hits / samples)


def whole_chunk_counts(gen, count, lo, span, body, moved):
    """(body hits, union hits) of one Monte-Carlo chunk drawn into a fresh
    array and tested whole, the moved body on the samples outside the body:
    the route that one buffer and sub-blocks replaced, kept as its exact
    reference."""
    pts = lo + gen.random((count, lo.shape[0])) * span
    in_body = body.contains(pts)
    in_union = in_body.copy()
    outside = ~in_body
    if outside.any():
        in_union[outside] = moved.contains(pts[outside])
    return int(in_body.sum()), int(in_union.sum())


def facet_test(body, points, tol):
    """The membership rule itself: every facet slack at most tol."""
    slack = points @ body._facet_normals.T + body._facet_offsets
    return np.all(slack <= tol, axis=1)


def ball_test_bodies():
    rng = np.random.default_rng(17)
    disk = regular_polygon(256)
    return {
        "disk256": disk,
        "disk256_moved": disk.transformed(
            Isometry.translation_by([0.0, 0.01])),
        "square": unit_square(),
        "sliver": ConvexBody([[0.0, 0.0], [100.0, 0.0], [100.0, 1e-3],
                              [0.0, 1e-3]]),
        "far_triangle": ConvexBody([[1e3, 1e3], [1e3 + 2.0, 1e3],
                                    [1e3 + 0.3, 1e3 + 1.5]]),
        "hull3d": ConvexBody(rng.normal(size=(30, 3))),
        "tetrahedron": ConvexBody([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "segment": ConvexBody(np.array([[-0.3], [0.4], [2.1]])),
    }


def adversarial_points(body, tol, rng):
    """Points where the ball test and the facet test are closest to
    disagreeing: within 1e-9 relative of r_in and R_out, the vertices, the
    feet of the facets seen from the centre, points moved off the facets by
    +-tol and by a few ulps, and points just past the vertices along their
    spokes, where the slack grows most slowly."""
    l = body.dimension
    c = body.vertices.mean(axis=0)
    normals = body._facet_normals
    unit_normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    depth = -(normals @ c + body._facet_offsets)
    r_in = float(np.min(depth / np.linalg.norm(normals, axis=1)))
    spokes = body.vertices - c
    spoke_len = np.linalg.norm(spokes, axis=1)
    r_out = float(spoke_len.max())
    scale = float(np.linalg.norm(c)) + r_out
    random_dirs = rng.normal(size=(64, l))
    dirs = np.concatenate([spokes / spoke_len[:, None], unit_normals,
                           random_dirs / np.linalg.norm(
                               random_dirs, axis=1)[:, None]])
    rel = np.linspace(-1e-9, 1e-9, 11)
    shells = [c + dirs[:, None, :] * (rho * (1.0 + rel))[None, :, None]
              for rho in (r_in, r_out)]
    feet = c + unit_normals * (depth / np.linalg.norm(normals, axis=1)
                               )[:, None]
    on_facets = np.concatenate([feet, body.vertices])
    facet_dirs = np.concatenate([unit_normals, unit_normals[
        np.argmax(body.vertices @ normals.T + body._facet_offsets, axis=1)]])
    ulp = 2.0 ** -52 * scale
    moves = np.concatenate([np.array([-tol, -0.5 * tol, 0.5 * tol, tol,
                                      tol * (1 + 1e-6), tol * (1 - 1e-6)]),
                            np.arange(-16, 17) * ulp])
    moved = on_facets[:, None, :] + moves[None, :, None] * facet_dirs[
        :, None, :]
    stretch = r_out / r_in
    past = np.array([0.5, 0.9, 0.99, 1.01, 2.0]) * stretch * tol
    beyond = (body.vertices[:, None, :] + past[None, :, None]
              * (spokes / spoke_len[:, None])[:, None, :])
    noise = (body.vertices[:, None, :] + rng.integers(-8, 9, (1, 16, l))
             * ulp)
    return np.concatenate([*(sh.reshape(-1, l) for sh in shells),
                           body.vertices, moved.reshape(-1, l),
                           beyond.reshape(-1, l), noise.reshape(-1, l)])


class TestBallPrefilter:
    @pytest.mark.parametrize("name", sorted(ball_test_bodies()))
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_contains_equals_facet_test_bit_for_bit(self, name, tol):
        body = ball_test_bodies()[name]
        rng = np.random.default_rng(5)
        points = adversarial_points(body, tol, rng)
        lo, hi = body.bounding_box()
        span = hi - lo
        uniform = lo - 0.25 * span + 1.5 * span * rng.random(
            (20000, body.dimension))
        for pts in (points, uniform):
            assert np.array_equal(body.contains(pts, tol=tol),
                                  facet_test(body, pts, tol))

    def test_disk_inner_ball_is_nearly_its_incircle(self):
        # the saving rests on the inscribed ball: r_in - delta sits within
        # 1e-8 of the 256-gon's inradius cos(pi/256)
        body = regular_polygon(256)
        assert body._center is not None
        assert math.sqrt(body._inner_sq) == pytest.approx(
            math.cos(math.pi / 256), abs=1e-8)

    def test_single_points_match_their_batch(self):
        body = regular_polygon(256)
        pts = adversarial_points(body, 0.0, np.random.default_rng(8))
        batch = body.contains(pts, tol=0.0)
        singles = [bool(body.contains(p[None, :], tol=0.0)[0])
                   for p in pts[::37]]
        assert singles == batch[::37].tolist()

    def test_negative_tol_takes_the_facet_test(self):
        body = unit_square()
        pts = np.array([[0.5, 0.5], [1e-10, 0.5], [0.5, 1.0 - 1e-10]])
        assert body.contains(pts, tol=-1e-9).tolist() == [True, False, False]


class TestFramedStrip:
    def test_contains_measures_distance_to_center_line(self):
        strip = FramedStrip2D(angle=0.0, half_width=1.0,
                              offset=np.array([0.0, 0.0]))
        hits = strip.contains(np.array([[5.0, 0.5], [-3.0, -0.999],
                                        [0.0, 1.2]]))
        assert hits.tolist() == [True, True, False]

    def test_signed_distance_uses_normal_side(self):
        strip = FramedStrip2D(angle=0.0, half_width=0.5,
                              offset=np.array([1.0, 2.0]))
        signed = strip.signed_distance(np.array([[0.0, 3.0], [0.0, 1.0]]))
        assert signed == pytest.approx([1.0, -1.0])

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            FramedStrip2D(angle=0.0, half_width=0.0,
                          offset=np.array([0.0, 0.0]))


class TestFlatBox:
    def test_corners_and_grid_stay_inside_box(self):
        box = FlatBox2D(center=np.array([1.0, -2.0]), angle=0.3,
                        length=4.0, cross_section=0.5)
        assert box.contains(box.corners(), tol=1e-12).all()
        grid = box.grid_points(20, 10)
        assert grid.shape == (200, 2)
        assert box.contains(grid, tol=1e-12).all()

    def test_degenerate_extents_rejected(self):
        with pytest.raises(ValueError):
            FlatBox2D(center=np.zeros(2), angle=0.0, length=0.0,
                      cross_section=1.0)


class TestThickenStrips:
    def test_coincident_centers_small_angle(self):
        first = FramedStrip2D(angle=0.0, half_width=1.0, offset=np.zeros(2))
        second = FramedStrip2D(angle=0.01, half_width=1.0,
                               offset=np.zeros(2))
        box = thicken_strips(first, second)
        assert box.cross_section >= 2.25
        assert box.cross_section == pytest.approx(2.25, rel=1e-12)
        assert box.length == pytest.approx((2.0 - 0.25) / math.tan(0.01),
                                           rel=1e-12)

    def test_box_lies_inside_the_union_of_strips(self):
        first = FramedStrip2D(angle=0.0, half_width=1.0, offset=np.zeros(2))
        second = FramedStrip2D(angle=0.01, half_width=1.0,
                               offset=np.zeros(2))
        box = thicken_strips(first, second)
        grid = box.grid_points(100, 100)
        covered = first.contains(grid, tol=1e-9) | second.contains(grid,
                                                                   tol=1e-9)
        assert covered.all()

    def test_generic_offset_mirrored_pair_stays_covered(self):
        first = FramedStrip2D(angle=0.4, half_width=0.8,
                              offset=np.array([0.3, -0.2]))
        second = FramedStrip2D(angle=0.4 - 0.006, half_width=1.3,
                               offset=np.array([1.7, 0.5]))
        box = thicken_strips(first, second)
        assert box.cross_section == pytest.approx(2 * 0.8 + 0.25 * 0.8,
                                                  rel=1e-12)
        assert box.length == pytest.approx(
            (2 * 1.3 - 0.25 * 0.8) / math.tan(0.006), rel=1e-12)
        grid = box.grid_points(100, 100)
        covered = first.contains(grid, tol=1e-9) | second.contains(grid,
                                                                   tol=1e-9)
        assert covered.all()

    def test_length_ratio_grows_at_least_tenfold(self):
        def length_at(theta):
            first = FramedStrip2D(angle=0.0, half_width=1.0,
                                  offset=np.zeros(2))
            second = FramedStrip2D(angle=theta, half_width=1.0,
                                   offset=np.zeros(2))
            return thicken_strips(first, second).length

        assert length_at(0.001) >= 10.0 * length_at(0.01)

    def test_length_strictly_grows_as_angle_shrinks(self):
        lengths = [
            thicken_strips(
                FramedStrip2D(angle=0.0, half_width=1.0,
                              offset=np.zeros(2)),
                FramedStrip2D(angle=theta, half_width=1.0,
                              offset=np.zeros(2)),
            ).length
            for theta in (0.1, 0.05, 0.02, 0.01, 0.005)
        ]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_parallel_strips_rejected(self):
        first = FramedStrip2D(angle=0.2, half_width=1.0, offset=np.zeros(2))
        same = FramedStrip2D(angle=0.2, half_width=1.0,
                             offset=np.array([0.0, 0.5]))
        opposite = FramedStrip2D(angle=0.2 + math.pi, half_width=1.0,
                                 offset=np.array([0.0, 0.5]))
        with pytest.raises(ParallelStripsError):
            thicken_strips(first, same)
        with pytest.raises(ParallelStripsError):
            thicken_strips(first, opposite)

    def test_wide_angle_rejected(self):
        first = FramedStrip2D(angle=0.0, half_width=1.0, offset=np.zeros(2))
        second = FramedStrip2D(angle=1.0, half_width=1.0, offset=np.zeros(2))
        with pytest.raises(ValueError):
            thicken_strips(first, second)
