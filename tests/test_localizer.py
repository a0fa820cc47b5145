import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescan.geometry import (
    BBox,
    CameraRig,
    PoseSE3,
    back_project_direction,
    camera_to_world_pose,
    cone_contains,
    cone_normals,
    project_points,
)
from conescan.localizer import (
    WEIGHT_FLOOR,
    ConvergenceRecord,
    GaussianSummary,
    LocalizerConfig,
    ParticleSet,
    TargetHypothesis,
    drop_duplicates,
    enlarge,
    gaussian_summary,
    generate_particles,
    kl_divergence,
    localization_status,
    needs_new_particle_set,
    pca_summary,
    perturb_points,
    points_entropy,
    systematic_resample,
    update_particles,
    weight_density,
    _STATUS_ORDER,
    _cloud_statistics,
)

from conftest import identity_pose, random_pose, same_bits

LCFG = LocalizerConfig(n_particles=1000, update_noise_var=0.04)
MAX_DEPTH = 24.0


def cloud(points):
    return ParticleSet(np.asarray(points, dtype=float))


def update(ps, box, world_to_cam, cam, cfg, rng):
    """update_particles of ps perturbed from rng, drawn first as a hypothesis draws it."""
    perturbed = perturb_points(ps.points, rng, cfg.update_noise_var,
                               np.empty(ps.points.shape))
    return update_particles(ps, perturbed, box, world_to_cam, cam, cfg, rng)


def gaussian_cloud(rng, mean, cov, n=1000):
    return cloud(rng.multivariate_normal(mean, cov, size=n))


class TestEnlarge:
    def test_identity(self):
        assert enlarge(BBox(3, 4, 9, 11), 1.0) == BBox(3, 4, 9, 11)

    def test_half_scale_about_center(self):
        out = enlarge(BBox(0, 0, 10, 10), 1.5)
        assert out == BBox(-2.5, -2.5, 12.5, 12.5)

    def test_area_scales_quadratically(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lo = rng.uniform(-50, 50, size=2)
            hi = lo + rng.uniform(1, 80, size=2)
            box = BBox(lo[0], lo[1], hi[0], hi[1])
            factor = rng.uniform(1.0, 3.0)
            assert enlarge(box, factor).area == pytest.approx(factor**2 * box.area)


class TestGenerateParticles:
    def test_all_points_strictly_inside_own_cone(self, cam):
        rng = np.random.default_rng(1)
        corners = BBox(200, 150, 420, 330).corners_clockwise()
        pose = random_pose(rng)
        ps = generate_particles(corners, pose, cam, LCFG, rng, max_depth=MAX_DEPTH)
        normals = cone_normals(corners, cam)
        pts_cam = pose.inverse().apply(ps.points)
        assert cone_contains(normals, pts_cam).all()

    def test_camera_depth_in_range(self, cam):
        rng = np.random.default_rng(2)
        corners = BBox(100, 100, 500, 380).corners_clockwise()
        ps = generate_particles(corners, identity_pose(), cam, LCFG, rng,
                                max_depth=MAX_DEPTH)
        z = ps.points[:, 2]  # identity pose: world frame is the camera frame
        assert np.all(z > 0)
        assert np.all(z <= MAX_DEPTH)

    def test_sample_mean_matches_corner_direction_average(self, cam):
        # E[point] = E[depth] * mean of the four corner directions
        rng = np.random.default_rng(3)
        cfg = LocalizerConfig(n_particles=100_000)
        corners = BBox(0, 0, cam.width, cam.height).corners_clockwise()
        ps = generate_particles(corners, identity_pose(), cam, cfg, rng, max_depth=10.0)
        dirs = np.stack([back_project_direction(c, cam) for c in corners])
        expected = 0.5 * 10.0 * dirs.mean(axis=0)
        se = ps.points.std(axis=0, ddof=1) / math.sqrt(cfg.n_particles)
        assert np.all(np.abs(ps.points.mean(axis=0) - expected) < 3 * se)

    def test_exact_count_and_finite(self, cam):
        rng = np.random.default_rng(4)
        corners = BBox(10, 10, 50, 50).corners_clockwise()
        ps = generate_particles(corners, random_pose(rng), cam, LCFG, rng,
                                max_depth=MAX_DEPTH)
        assert ps.points.shape == (LCFG.n_particles, 3)
        assert np.all(np.isfinite(ps.points))

    @pytest.mark.parametrize("n", [1000, 2**14 + 1, 100_000])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_the_whole_array_arithmetic(self, n, seed):
        cam = CameraRig()
        rng = np.random.default_rng(seed)
        pose = random_pose(np.random.default_rng(seed + 1))
        corners = BBox(150, 120, 430, 350).corners_clockwise()
        ps = generate_particles(corners, pose, cam, LocalizerConfig(n_particles=n),
                                rng, max_depth=MAX_DEPTH)
        rng = np.random.default_rng(seed)
        dirs = np.column_stack([back_project_direction(c, cam) for c in corners])
        coeffs = 1.0 - rng.uniform(size=(4, n))
        coeffs /= coeffs.sum(axis=0)
        depths = MAX_DEPTH * (1.0 - rng.uniform(size=n))
        pts_cam = ((dirs @ coeffs) * depths).T
        assert np.array_equal(ps.points, pts_cam @ pose.rotation.T + pose.translation)
        assert not ps.points.flags.writeable


# Set sizes around the first cone-membership chunk, and places for a set's only
# inside point: the front, each side of the chunk starts at 256 and 1,280, the
# back, or nowhere.
CHUNK_SIZES = (2, 255, 256, 257, 5000)
CHUNK_PLACES = (0, 255, 256, 257, 1279, 1280, 1281, "last", None)
CHUNK_LAYOUTS = [(n, p) for n in CHUNK_SIZES for p in CHUNK_PLACES
                 if p is None or p == "last" or p < n]


def one_inside_sets(layouts, seed):
    """Particle sets, one per (size, place), whose points lie in the cone of a box
    sharing an edge with the test box, except one point at `place` that lies in
    the test box's cone. Returns the sets, the test cone's normals and its pose."""
    cam = CameraRig()
    inside, beside = BBox(200, 150, 420, 330), BBox(420, 150, 600, 330)
    rng = np.random.default_rng(seed)
    cam_to_world = random_pose(rng)
    sets = []
    for n, place in layouts:
        lcfg = LocalizerConfig(n_particles=max(n, 100))
        pts = generate_particles(beside.corners_clockwise(), cam_to_world, cam, lcfg,
                                 rng, max_depth=MAX_DEPTH).points[:n].copy()
        if place is not None:
            pts[n - 1 if place == "last" else place] = generate_particles(
                inside.corners_clockwise(), cam_to_world, cam, LCFG, rng,
                max_depth=MAX_DEPTH).points[0]
        sets.append(cloud(pts))
    return sets, cone_normals(inside.corners_clockwise(), cam), cam_to_world.inverse()


class _RowCountingPose:
    """A pose that counts the rows it transforms."""

    def __init__(self, pose):
        self.pose, self.rows = pose, 0

    def apply(self, points):
        self.rows += len(points)
        return self.pose.apply(points)


class TestNeedsNewParticleSet:
    def test_no_sets_means_register(self, cam):
        normals = cone_normals(BBox(10, 10, 50, 50).corners_clockwise(), cam)
        assert needs_new_particle_set([], normals, identity_pose()) == []

    def test_same_cone_static_camera_matches(self, cam):
        rng = np.random.default_rng(6)
        corners = BBox(200, 150, 420, 330).corners_clockwise()
        ps = generate_particles(corners, identity_pose(), cam, LCFG, rng,
                                max_depth=MAX_DEPTH)
        normals = cone_normals(corners, cam)
        assert needs_new_particle_set([ps], normals, identity_pose()) == [0]

    def test_behind_camera_set_not_matched(self, cam):
        rng = np.random.default_rng(7)
        corners = BBox(200, 150, 420, 330).corners_clockwise()
        front = generate_particles(corners, identity_pose(), cam, LCFG, rng,
                                   max_depth=MAX_DEPTH)
        behind = cloud(-front.points)
        normals = cone_normals(corners, cam)
        assert needs_new_particle_set([front, behind], normals, identity_pose()) == [0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), layouts=st.permutations(CHUNK_LAYOUTS))
    def test_matches_full_scan_in_order(self, seed, layouts):
        sets, normals, world_to_cam = one_inside_sets(layouts, seed)
        full = [cone_contains(normals, world_to_cam.apply(ps.points)) for ps in sets]
        assert [int(mask.sum()) for mask in full] == [p is not None for _, p in layouts]
        expected = [i for i, mask in enumerate(full) if mask.any()]
        assert needs_new_particle_set(sets, normals, world_to_cam) == expected

    def test_a_hit_at_the_front_stops_the_scan(self):
        sets, normals, world_to_cam = one_inside_sets([(100_000, 0)], seed=31)
        counting = _RowCountingPose(world_to_cam)
        assert needs_new_particle_set(sets, normals, counting) == [0]
        assert counting.rows <= 256

    def test_a_set_without_a_hit_is_transformed_once(self):
        sets, normals, world_to_cam = one_inside_sets([(100_000, None)], seed=31)
        counting = _RowCountingPose(world_to_cam)
        assert needs_new_particle_set(sets, normals, counting) == []
        assert counting.rows == 100_000


def reference_weight_density(pix, box, cfg):
    """The box likelihood with each term an out-of-place array expression."""
    cu, cv = box.center
    su, sv = box.width / 2.0, box.height / 2.0
    norm = 1.0 / (2.0 * math.pi * su * sv)
    quad = ((pix[:, 0] - cu) / su) ** 2 + ((pix[:, 1] - cv) / sv) ** 2
    gauss = norm * np.exp(-0.5 * quad)
    support = enlarge(box, cfg.enlarge_factor)
    inside = ((pix[:, 0] >= support.u_min) & (pix[:, 0] <= support.u_max)
              & (pix[:, 1] >= support.v_min) & (pix[:, 1] <= support.v_max))
    uniform = np.where(inside, 1.0 / support.area, 0.0)
    return np.maximum(cfg.gauss_weight * gauss + cfg.uniform_weight * uniform,
                      WEIGHT_FLOOR)


class TestWeightDensity:
    BOX = BBox(100, 100, 200, 180)

    @pytest.mark.parametrize("uniform_weight", [0.0, 0.1, 1.0])
    def test_bitwise_equal_to_the_out_of_place_terms(self, uniform_weight):
        rng = np.random.default_rng(40)
        cfg = LocalizerConfig(uniform_weight=uniform_weight)
        support = enlarge(self.BOX, cfg.enlarge_factor)
        pixels = np.concatenate([
            rng.uniform([-500, -500], [1100, 1000], size=(5000, 2)),
            [[support.u_min, support.v_min], [support.u_max, support.v_max],
             [support.u_min - 1e-9, 140.0], [5000.0, 5000.0]],
        ])
        got = weight_density(pixels, self.BOX, cfg)
        expected = reference_weight_density(pixels, self.BOX, cfg)
        assert np.array_equal(got, expected)
        assert weight_density(pixels[:1], self.BOX, cfg)[0] == expected[0]

    def test_center_is_max(self):
        rng = np.random.default_rng(8)
        center_val = weight_density([self.BOX.center], self.BOX, LCFG)[0]
        pixels = rng.uniform([0, 0], [640, 480], size=(2000, 2))
        assert np.all(weight_density(pixels, self.BOX, LCFG) <= center_val)

    def test_integrates_to_one(self):
        # 2D quadrature over a window holding all the Gaussian mass
        box = self.BOX
        us = np.linspace(box.center[0] - 400, box.center[0] + 400, 1201)
        vs = np.linspace(box.center[1] - 350, box.center[1] + 350, 1051)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        vals = weight_density(np.column_stack([uu.ravel(), vv.ravel()]), box, LCFG)
        total = np.trapezoid(
            np.trapezoid(vals.reshape(uu.shape), vs, axis=1), us
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_far_outside_is_exactly_floor(self):
        assert weight_density([[5000.0, 5000.0]], self.BOX, LCFG)[0] == WEIGHT_FLOOR

    def test_uniform_support_is_the_enlarged_box(self):
        box = self.BOX
        support = enlarge(box, LCFG.enlarge_factor)
        just_inside = [support.u_min + 1e-6, box.center[1]]
        just_outside = [support.u_min - 1e-6, box.center[1]]
        inside, outside = weight_density([just_inside, just_outside], box, LCFG)
        gap = inside - outside
        assert gap == pytest.approx(LCFG.uniform_weight / support.area, rel=1e-3)


class TestSystematicResample:
    def test_equal_weights_is_permutation(self):
        rng = np.random.default_rng(9)
        n = 500
        idx = systematic_resample(np.full(n, 1.0 / n), rng)
        assert sorted(idx.tolist()) == list(range(n))

    def test_unbiased_mean(self):
        # expected post-resample mean equals the weighted mean
        rng = np.random.default_rng(10)
        values = rng.uniform(0, 1, size=200)
        weights = rng.uniform(0.1, 1.0, size=200)
        weights /= weights.sum()
        target = float(weights @ values)
        means = []
        for _ in range(1000):
            idx = systematic_resample(weights, rng)
            means.append(values[idx].mean())
        means = np.asarray(means)
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - target) < 3 * max(se, 1e-12)

    def test_high_weight_dominates(self):
        rng = np.random.default_rng(11)
        weights = np.full(100, 1e-9)
        weights[42] = 1.0
        idx = systematic_resample(weights, rng)
        assert np.all(idx == 42)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 7, 1000, 100_000]),
           kind=st.sampled_from(["random", "tied", "dominant", "floor"]),
           seed=st.integers(0, 2**32 - 1),
           u=st.one_of(st.none(), st.sampled_from([0.0, 0.5]),
                       st.floats(0.0, 1.0, exclude_max=True)))
    def test_bitwise_equal_to_searchsorted(self, n, kind, seed, u):
        # u=None draws from a generator; a fixed u puts positions exactly on the
        # cumulative weights of tied ones (u=0 and 0.5 at n=2 give 0.5 == 0.5)
        g = np.random.default_rng(seed)
        weights = {
            "random": lambda: g.uniform(size=n),
            "tied": lambda: np.full(n, 1.0 / n),
            "dominant": lambda: np.where(np.arange(n) == g.integers(n), 1.0, 1e-9),
            "floor": lambda: np.where(g.uniform(size=n) < 0.9, WEIGHT_FLOOR,
                                      g.uniform(size=n)),
        }[kind]()
        got = systematic_resample(weights, _FixedUniform(u) if u is not None
                                  else np.random.default_rng(seed))
        rng = _FixedUniform(u) if u is not None else np.random.default_rng(seed)
        w = weights / weights.sum()
        positions = (np.arange(n) + rng.uniform()) / n
        expected = np.minimum(np.searchsorted(np.cumsum(w), positions, side="right"), n - 1)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


class _FixedUniform:
    """A generator whose one uniform draw is a given value."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def overhead_pose(position):
    """Camera at `position` looking straight down, north up in the image."""
    rot = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    return PoseSE3(rot.T, np.asarray(position, dtype=float))


def exact_box(points_or_target, world_to_cam, cam, pad=0.0):
    pix, depth = project_points(points_or_target, world_to_cam, cam)
    assert np.all(depth > 0)
    return BBox(pix[:, 0].min() - pad, pix[:, 1].min() - pad,
                pix[:, 0].max() + pad, pix[:, 1].max() + pad)


class TestUpdateParticles:
    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_bitwise_equal_to_the_out_of_place_round(self, cam, n):
        # a cloud straddling the camera plane, so the depth mask acts
        rng = np.random.default_rng(41)
        ps = cloud(rng.normal([0.0, 0.0, 5.0], 3.0, size=(n, 3)))
        world_to_cam = overhead_pose([0.0, 0.0, 10.0]).inverse()
        box = BBox(280.0, 200.0, 360.0, 290.0)
        res = update(ps, box, world_to_cam, cam, LCFG, np.random.default_rng(5))

        ref_rng = np.random.default_rng(5)
        noise = math.sqrt(LCFG.update_noise_var) * ref_rng.standard_normal(ps.points.shape)
        perturbed = ps.points + noise
        pix, depth = project_points(perturbed, world_to_cam, cam)
        assert (depth <= 0).any() and (depth > 0).any()
        weights = np.where(depth > 0, reference_weight_density(pix, box, LCFG), WEIGHT_FLOOR)
        w = weights / weights.sum()
        positions = (np.arange(n) + ref_rng.uniform()) / n
        idx = np.minimum(np.searchsorted(np.cumsum(w), positions, side="right"), n - 1)
        assert not res.starved
        assert np.array_equal(res.particles.points, perturbed[idx])

    def test_two_views_contract_covariance(self, cam):
        # noiseless two-view oracle: generate from one pose, update from two
        # well-separated poses with exact boxes around the true target
        rng = np.random.default_rng(12)
        target = np.array([0.0, 0.0, 0.5])
        spread = 0.4 * rng.standard_normal((60, 3)) + target
        pose_a = camera_to_world_pose([-8, 0, 10], 0.0, math.radians(55))
        box_a = exact_box(spread, pose_a.inverse(), cam, pad=2.0)
        corners = enlarge(box_a, LCFG.enlarge_factor).corners_clockwise()
        ps = generate_particles(corners, pose_a, cam, LCFG, rng, max_depth=MAX_DEPTH)
        trace0 = np.trace(np.cov(ps.points.T))

        for position, yaw in (([0, -8, 10], math.pi / 2), ([8, 0, 10], math.pi)):
            pose = camera_to_world_pose(position, yaw, math.radians(55))
            box = exact_box(spread, pose.inverse(), cam, pad=2.0)
            res = update(ps, box, pose.inverse(), cam, LCFG, rng)
            assert not res.starved
            ps = res.particles
        assert np.trace(np.cov(ps.points.T)) < trace0

    def test_starved_update_returns_set_unchanged(self, cam):
        rng = np.random.default_rng(13)
        ps = cloud(rng.normal([0, 0, 5], 0.1, size=(500, 3)))
        far_box = BBox(0, 0, 4, 4)  # projected cloud is at the principal point
        res = update(ps, far_box, identity_pose(), cam, LCFG, rng)
        assert res.starved
        assert res.particles is ps

    def test_behind_camera_starves(self, cam):
        rng = np.random.default_rng(14)
        ps = cloud(rng.normal([0, 0, -5], 0.1, size=(500, 3)))
        box = BBox(300, 220, 340, 260)
        res = update(ps, box, identity_pose(), cam, LCFG, rng)
        assert res.starved

    def test_zero_noise_whole_image_uniform_is_permutation(self, cam):
        rng = np.random.default_rng(15)
        cfg = LocalizerConfig(
            n_particles=500, update_noise_var=0.0, uniform_weight=1.0,
            enlarge_factor=1.0,
        )
        pts = rng.normal([0, 0, 10], 0.5, size=(500, 3))
        ps = cloud(pts)
        box = BBox(1.0, 1.0, cam.width - 1.0, cam.height - 1.0)
        res = update(ps, box, identity_pose(), cam, cfg, rng)
        assert not res.starved
        assert np.abs(res.particles.points.mean(axis=0) - pts.mean(axis=0)).max() < 1e-9

    def test_count_and_finiteness_preserved(self, cam):
        rng = np.random.default_rng(16)
        corners = BBox(250, 190, 390, 290).corners_clockwise()
        ps = generate_particles(corners, identity_pose(), cam, LCFG, rng,
                                max_depth=MAX_DEPTH)
        for _ in range(10):
            box = BBox(250 + rng.uniform(-20, 20), 190 + rng.uniform(-20, 20),
                       390 + rng.uniform(-20, 20), 290 + rng.uniform(-20, 20))
            res = update(ps, box, identity_pose(), cam, LCFG, rng)
            ps = res.particles
            assert ps.points.shape == (LCFG.n_particles, 3)
            assert np.all(np.isfinite(ps.points))


def reference_statistics(pts):
    """Mean, covariance, sign-normalized descending PCA and entropy, from scratch."""
    mean = pts.mean(axis=0)
    cov = np.cov(pts.T, ddof=1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    v = evecs[:, 2]
    if v[2] < 0 or (v[2] == 0 and (v[0] < 0 or (v[0] == 0 and v[1] < 0))):
        evecs[:, 2] = -v
    sign, logdet = np.linalg.slogdet(cov)
    entropy = (-math.inf if sign <= 0 or not np.isfinite(logdet)
               else 1.5 + 1.5 * math.log(2.0 * math.pi) + 0.5 * logdet)
    return mean, cov, evals, evecs, entropy


def shaped_cloud(n, seed, scale, shape):
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((n, 3)) + rng.uniform(-50, 50, size=3)
    if shape == "duplicated":
        pts = np.repeat(pts[: (n + 1) // 2], 2, axis=0)[:n]
    elif shape == "collinear":
        pts = np.column_stack([scale * rng.standard_normal(n), np.zeros(n), np.zeros(n)])
    return pts


class TestCachedCloudStatistics:
    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([2, 4, 100]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3),
           shape=st.sampled_from(["general", "duplicated", "collinear"]))
    def test_bitwise_equal_to_fresh_computation(self, n, seed, scale, shape):
        self.check_against_reference(shaped_cloud(n, seed, scale, shape), shape)

    # at cloud scale the reductions over the points run through other BLAS kernels
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
           shape=st.sampled_from(["general", "duplicated", "collinear"]))
    def test_bitwise_equal_at_cloud_scale(self, seed, scale, shape):
        self.check_against_reference(shaped_cloud(100_000, seed, scale, shape), shape)

    @staticmethod
    def check_against_reference(pts, shape):
        n = len(pts)
        mean, cov, evals, evecs, entropy = reference_statistics(pts.copy())
        ps = cloud(pts)
        hyp = TargetHypothesis(target_id=0, particles=ps, rng=np.random.default_rng(0))
        for _ in range(2):  # the first read computes, the second reads the cache
            gauss, pca = gaussian_summary(ps), pca_summary(ps)
            assert np.array_equal(gauss.mean, mean) and np.array_equal(gauss.cov, cov)
            assert np.array_equal(pca.mean, mean)
            assert np.array_equal(pca.eigenvalues, evals)
            assert np.array_equal(pca.eigenvectors, evecs)
            assert np.array_equal(hyp.center, mean)
            assert points_entropy(ps) == entropy
        if shape == "collinear":
            assert points_entropy(ps) == -math.inf

    def test_a_trusted_set_is_read_only_and_gives_the_same_statistics(self, cam):
        # ParticleSet trusts its makers, generate_particles and update_particles:
        # the sets they make are read-only, and a set over a caller's copy of
        # the same points leaves the copy writable and gives the same statistics
        rng = np.random.default_rng(28)
        box = BBox(250, 190, 390, 290)
        made = generate_particles(box.corners_clockwise(), identity_pose(), cam, LCFG, rng,
                                  max_depth=MAX_DEPTH)
        res = update(made, box, identity_pose(), cam, LCFG, rng)
        assert not res.starved
        for ps in (made, res.particles):
            assert not ps.points.flags.writeable
            with pytest.raises(ValueError):
                ps.points[0, 0] = 1.0
            pts = ps.points.copy()
            again = cloud(pts)
            assert pts.flags.writeable and np.shares_memory(again.points, pts)
            for summary in (gaussian_summary, pca_summary):
                for a, b in zip(vars(summary(ps)).values(), vars(summary(again)).values()):
                    assert np.array_equal(a, b)
            assert points_entropy(ps) == points_entropy(again)

    def test_points_are_a_read_only_view(self):
        pts = np.random.default_rng(27).standard_normal((100, 3))
        ps = cloud(pts)
        assert np.shares_memory(ps.points, pts)
        with pytest.raises(ValueError):
            ps.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            ps.points += 1.0
        pca = pca_summary(ps)
        with pytest.raises(ValueError):
            pca.eigenvectors[:, 2] *= -1.0
        assert pts.flags.writeable


class TestCloudMean:
    """_cloud_statistics takes the mean from a running sum along the points; it
    must keep the bits of points.mean(axis=0) on the C-ordered cloud, whatever
    the cloud's layout, and of the covariance of the points centered on it."""

    @pytest.mark.parametrize("n", (2, 3, 9, 1_000, 16_384, 16_385, 100_000))
    @pytest.mark.parametrize("zeros", (None, "column", "leading"))
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
           order=st.sampled_from("CF"),
           shape=st.sampled_from(["general", "duplicated", "collinear"]))
    def test_bitwise_equal_to_the_c_ordered_mean(self, n, zeros, seed, scale, order, shape):
        pts = shaped_cloud(n, seed, scale, shape)
        if zeros == "column":  # numpy's sum starts from +0.0, so it reads +0.0
            pts[:, seed % 3] = -0.0
        elif zeros == "leading":
            pts[: n // 2 + 1, seed % 3] = -0.0
        ps = cloud(np.asarray(pts, order=order))
        assert ps.points.flags.c_contiguous == (order == "C")

        pts = np.ascontiguousarray(pts)  # numpy sums an F-ordered column pairwise
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = np.dot(centered.T, centered)
        cov *= 1.0 / (n - 1)
        gauss = gaussian_summary(ps)
        assert same_bits(gauss.mean, mean) and same_bits(gauss.cov, cov)
        assert same_bits(pca_summary(ps).mean, mean)

    def test_running_sum_allocates_no_second_cloud(self):
        # the sum is written into the centering buffer, the one (n, 3) array the
        # statistics need, so it cannot raise a mission's peak memory
        pts = shaped_cloud(100_000, 3, 1.0, "general")
        _cloud_statistics(pts[:10].copy())  # first-call allocations out of the count
        tracemalloc.start()
        try:
            _cloud_statistics(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * pts.nbytes


class TestPcaSummary:
    def test_collinear_points(self):
        t = np.linspace(-2, 2, 100)
        pts = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        pca = pca_summary(cloud(pts))
        assert pca.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        assert pca.eigenvalues[2] == pytest.approx(0.0, abs=1e-12)
        assert abs(pca.eigenvectors[0, 0]) == pytest.approx(1.0)

    def test_isotropic_ratio_approaches_one(self):
        rng = np.random.default_rng(17)
        ps = gaussian_cloud(rng, np.zeros(3), np.eye(3), n=10_000)
        pca = pca_summary(ps)
        assert pca.eigenvalues[0] / pca.eigenvalues[2] < 1.1

    def test_smallest_eigenvector_z_non_negative(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            a = rng.standard_normal((3, 3))
            ps = gaussian_cloud(rng, rng.standard_normal(3), a @ a.T + 0.01 * np.eye(3),
                                n=200)
            v = pca_summary(ps).smallest_eigenvector
            assert v[2] >= 0.0

    def test_semi_axes_cover_two_sigma_quantile(self):
        # 2 sqrt(lambda) should hold ~95.45% of projections per principal axis
        rng = np.random.default_rng(19)
        ps = gaussian_cloud(rng, np.zeros(3), np.diag([4.0, 1.0, 0.25]), n=20_000)
        pca = pca_summary(ps)
        centered = ps.points - pca.mean
        for axis in range(3):
            proj = centered @ pca.eigenvectors[:, axis]
            frac = np.mean(np.abs(proj) <= 2.0 * np.sqrt(pca.eigenvalues[axis]))
            assert 0.94 < frac < 0.965

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((3, 3))
        ps = gaussian_cloud(rng, np.zeros(3), a @ a.T + 0.1 * np.eye(3), n=500)
        vecs = pca_summary(ps).eigenvectors
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)


def mc_kl_estimate(n0, n1, n_samples, rng):
    """Monte-Carlo KL from samples of n0; independent of the closed form."""
    k = 3
    chol0 = np.linalg.cholesky(n0.cov)
    z = rng.standard_normal((n_samples, k))
    x = n0.mean + z @ chol0.T

    def logpdf(x, mean, cov):
        diff = x - mean
        sol = np.linalg.solve(cov, diff.T).T
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (k * math.log(2 * math.pi) + logdet + np.sum(diff * sol, axis=1))

    return float(np.mean(logpdf(x, n0.mean, n0.cov) - logpdf(x, n1.mean, n1.cov)))


class TestKlDivergence:
    def test_identical_is_zero(self):
        n = GaussianSummary(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 0.5]))
        assert abs(kl_divergence(n, n)) < 1e-12

    def test_unit_mean_shift(self):
        n0 = GaussianSummary(np.array([1.0, 0.0, 0.0]), np.eye(3))
        n1 = GaussianSummary(np.zeros(3), np.eye(3))
        assert kl_divergence(n0, n1) == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(21)
        assert mc_kl_estimate(n0, n1, 1_000_000, rng) == pytest.approx(0.5, rel=0.02)

    def test_covariance_ratio(self):
        # 0.5 * (3/2 - 3 + 3 ln 2)
        n0 = GaussianSummary(np.zeros(3), np.eye(3))
        n1 = GaussianSummary(np.zeros(3), 2.0 * np.eye(3))
        expected = 0.5 * (1.5 - 3.0 + 3.0 * math.log(2.0))
        assert kl_divergence(n0, n1) == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(22)
        assert mc_kl_estimate(n0, n1, 1_000_000, rng) == pytest.approx(expected, rel=0.02)

    def test_singular_second_covariance_raises(self):
        n0 = GaussianSummary(np.zeros(3), np.eye(3))
        n1 = GaussianSummary(np.zeros(3), np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            kl_divergence(n0, n1)

    def test_non_negative_for_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            n0 = GaussianSummary(rng.standard_normal(3), a @ a.T + 0.01 * np.eye(3))
            n1 = GaussianSummary(rng.standard_normal(3), b @ b.T + 0.01 * np.eye(3))
            assert kl_divergence(n0, n1) >= 0.0


class TestPointsEntropy:
    def test_identity_covariance_value(self):
        rng = np.random.default_rng(24)
        pts = rng.multivariate_normal(np.zeros(3), np.eye(3), size=5000)
        # exact value depends on the sample covariance, so feed it back in
        expected = 1.5 + 1.5 * math.log(2 * math.pi) + 0.5 * np.linalg.slogdet(
            np.cov(pts.T, ddof=1))[1]
        assert points_entropy(cloud(pts)) == pytest.approx(expected, abs=1e-12)
        assert 1.5 * (1.0 + math.log(2 * math.pi)) == pytest.approx(4.2568, abs=1e-4)

    def test_scaling_adds_three_log_two(self):
        rng = np.random.default_rng(25)
        pts = rng.standard_normal((800, 3))
        h1 = points_entropy(cloud(pts))
        h2 = points_entropy(cloud(2.0 * pts))
        assert h2 - h1 == pytest.approx(3.0 * math.log(2.0), abs=1e-6)

    def test_collinear_is_minimal(self):
        t = np.linspace(0, 1, 50)
        pts = np.column_stack([t, 2 * t, -t])
        assert points_entropy(cloud(pts)) == -math.inf


class TestLocalizationStatus:
    CFG = LocalizerConfig(lambda_rough=4.0, lambda_fine=0.25, kl_converged=0.01)

    def _hyp(self, scale):
        rng = np.random.default_rng(26)
        return TargetHypothesis(target_id=0,
                                particles=cloud(rng.normal(0.0, scale, size=(1000, 3))),
                                rng=rng)

    def test_fresh_wide_set_is_rough(self):
        rec = ConvergenceRecord(lambda_max=50.0, entropy=8.0, kl=None)
        assert localization_status(rec, self.CFG) == "rough"

    def test_fine_band(self):
        rec = ConvergenceRecord(lambda_max=1.0, entropy=3.0, kl=0.5)
        assert localization_status(rec, self.CFG) == "fine_requested"

    def test_converged(self):
        hyp = self._hyp(10.0)
        hyp.record(self.CFG, kl=None)
        assert hyp.status == "rough"
        hyp.particles = self._hyp(0.1).particles
        rec = hyp.record(self.CFG, kl=1e-4)
        assert rec.lambda_max < 0.25
        assert hyp.status == "converged"

    def test_low_lambda_but_high_kl_not_converged(self):
        rec = ConvergenceRecord(lambda_max=0.1, entropy=0.5, kl=0.5)
        assert localization_status(rec, self.CFG) == "fine_requested"

    def test_monotone_no_regression(self):
        hyp = self._hyp(0.1)
        hyp.record(self.CFG, kl=1e-4)
        assert hyp.status == "converged"
        hyp.particles = self._hyp(10.0).particles
        rec = hyp.record(self.CFG, kl=5.0)
        assert localization_status(rec, self.CFG) == "rough"
        assert hyp.status == "converged"
        assert len(hyp.history) == 2

    @staticmethod
    def three_gate_status(rec, cfg):
        """The former formula: each eigenvalue gate joined by an entropy gate,
        the entropy of the isotropic cloud at that eigenvalue."""
        offset = 1.5 + 1.5 * math.log(2.0 * math.pi)
        entropy_rough = offset + 1.5 * math.log(cfg.lambda_rough)
        entropy_converged = offset + 1.5 * math.log(cfg.lambda_fine)
        if (rec.lambda_max < cfg.lambda_fine and rec.entropy < entropy_converged
                and rec.kl is not None and rec.kl < cfg.kl_converged):
            return "converged"
        if rec.lambda_max < cfg.lambda_rough and rec.entropy < entropy_rough:
            return "fine_requested"
        return "rough"

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 10, 1000]),
           shape=st.sampled_from(["isotropic", "near_isotropic", "general", "flat"]),
           gate=st.sampled_from(["lambda_rough", "lambda_fine"]),
           ulps=st.one_of(st.integers(-8, 8), st.none()),
           kl=st.sampled_from([None, 0.0, 0.05, 0.5]))
    def test_equals_the_three_gate_formula(self, seed, n, shape, gate, ulps, kl):
        # whitened points scaled so that lambda_max lands a few ulps either side
        # of a gate, or anywhere within a factor e^3 of it when ulps is None
        rng = np.random.default_rng(seed)
        cfg = LocalizerConfig(lambda_rough=float(rng.uniform(0.5, 10.0)),
                              lambda_fine=float(rng.uniform(0.01, 0.5)),
                              kl_converged=0.06)
        pts = rng.standard_normal((n, 3))
        pts -= pts.mean(axis=0)
        evals, evecs = np.linalg.eigh(pts.T @ pts / (n - 1))
        pts = pts @ (evecs / np.sqrt(evals)) @ evecs.T
        pts *= {"isotropic": np.ones(3), "near_isotropic": 1.0 - rng.uniform(0, 1e-6, 3),
                "general": np.exp(rng.uniform(-3, 0, 3)), "flat": [1.0, 0.5, 0.0]}[shape]
        factor = math.exp(rng.uniform(-3, 3)) if ulps is None else 1.0 + ulps * 2.0**-52
        pts *= math.sqrt(getattr(cfg, gate) * factor / pca_summary(cloud(pts)).eigenvalues[0])
        hyp = TargetHypothesis(target_id=0, particles=cloud(pts + rng.uniform(-20, 20, 3)),
                               rng=rng)
        rec = hyp.record(cfg, kl)
        new, old = localization_status(rec, cfg), self.three_gate_status(rec, cfg)
        if new != old:
            # rounding only: a near-isotropic cloud a few ulps under the gate
            # whose entropy clause failed; the entropy clauses never pass alone
            passed = cfg.lambda_fine if new == "converged" else cfg.lambda_rough
            assert 0 < passed - rec.lambda_max <= 8 * math.ulp(passed)
            assert _STATUS_ORDER[new] > _STATUS_ORDER[old]


class TestDropDuplicates:
    def _hyp(self, target_id, center, status, lam):
        rng = np.random.default_rng(target_id)
        pts = rng.normal(center, 0.05, size=(120, 3))
        hyp = TargetHypothesis(target_id=target_id, particles=cloud(pts), rng=rng)
        hyp.status = status
        hyp.history = [ConvergenceRecord(lambda_max=lam, entropy=0.0, kl=None)]
        return hyp

    def test_near_duplicate_keeps_more_converged(self):
        a = self._hyp(0, [0, 0, 0], "converged", 0.1)
        b = self._hyp(1, [0.3, 0, 0], "rough", 5.0)
        assert [h.target_id for h in drop_duplicates([a, b])] == [0]

    def test_distant_sets_both_kept(self):
        a = self._hyp(0, [0, 0, 0], "rough", 5.0)
        b = self._hyp(1, [10, 0, 0], "rough", 5.0)
        assert [h.target_id for h in drop_duplicates([a, b])] == [0, 1]

    def test_equal_status_smaller_lambda_wins(self):
        a = self._hyp(0, [0, 0, 0], "rough", 5.0)
        b = self._hyp(1, [0.2, 0, 0], "rough", 1.0)
        assert [h.target_id for h in drop_duplicates([a, b])] == [1]

    def test_kept_hypothesis_outranks_every_other(self):
        a = self._hyp(0, [0, 0, 0], "fine_requested", 1.0)
        b = self._hyp(1, [0.3, 0, 0], "converged", 0.1)
        assert [h.target_id for h in drop_duplicates([a, b])] == [1]
        assert [h.target_id for h in drop_duplicates([a, b], keep=a)] == [0]
