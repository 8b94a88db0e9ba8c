import numpy as np
import pytest

from liprec import models, randomness as rnd, support
from liprec.chains import stationary_batch
from liprec.errors import CapacityError, PreconditionError

from _util import compose, fixed_point


def test_letac_support_is_two_points(letac_spec):
    # a max(x, 1/2) + c with a in {1/3, 2}, c = -1: every contracting
    # word lands on one of the two fixed points -5/6 and 0
    cloud = support.enumerate_fixed_points(letac_spec, max_depth=6)
    got = np.sort(cloud.points)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(-5.0 / 6.0, abs=1e-9)
    assert got[1] == pytest.approx(0.0, abs=1e-9)


def test_enumeration_idempotent_in_depth(letac_spec):
    a = support.enumerate_fixed_points(letac_spec, max_depth=4)
    b = support.enumerate_fixed_points(letac_spec, max_depth=7)
    assert len(a.points) == len(b.points)
    assert np.allclose(np.sort(a.points), np.sort(b.points), atol=1e-9)


def _two_atom_affine():
    # x/2 and x/2 + 1/2: support is the full interval [0, 1], so finite
    # clouds always leave some images uncovered
    return models.make_model(
        "affine",
        laws={
            "scale": rnd.constant(0.5),
            "shift": rnd.discrete(atoms=(0.0, 0.5), weights=(0.5, 0.5)),
        },
    )


def test_frontier_escape_decays_on_finite_support(letac_spec):
    # depth 1 finds only -5/6 (the a = 2 atom expands); mapping it by
    # that atom lands on 0, which escapes until depth picks it up
    shallow = support.enumerate_fixed_points(letac_spec, max_depth=1)
    deep = support.enumerate_fixed_points(letac_spec, max_depth=6)
    esc_shallow = support.closure_frontier(letac_spec, shallow)
    esc_deep = support.closure_frontier(letac_spec, deep)
    assert esc_shallow == pytest.approx(0.5)
    assert esc_deep == 0.0


def test_frontier_escape_flags_interval_support():
    # support [0, 1] is a continuum: any finite cloud leaves most atom
    # images farther than the dedupe tolerance from the cloud
    spec = _two_atom_affine()
    cloud = support.enumerate_fixed_points(spec, max_depth=8)
    assert support.closure_frontier(spec, cloud) > 0.3


def test_interval_support_endpoints():
    spec = _two_atom_affine()
    cloud = support.enumerate_fixed_points(spec, max_depth=5)
    assert np.all(cloud.points >= -1e-9)
    assert np.all(cloud.points <= 1.0 + 1e-9)
    # endpoints are the fixed points of the two pure words
    assert np.min(np.abs(cloud.points - 0.0)) < 1e-9
    assert np.min(np.abs(cloud.points - 1.0)) < 1e-9


def test_letac_batch_lands_on_cloud(letac_spec, letac_batch_10k):
    cloud = support.enumerate_fixed_points(letac_spec, max_depth=6)
    rep = support.coverage_check(cloud, letac_batch_10k.samples, epsilon=1e-6)
    assert rep.fraction_covered == 1.0
    assert rep.max_distance <= 1e-6
    assert rep.count == len(letac_batch_10k.samples)


def _atomic_extremal():
    return models.make_model(
        "extremal",
        laws={
            "a": rnd.constant(0.25),
            "b": rnd.discrete(atoms=(1.0, 2.0), weights=(0.5, 0.5)),
        },
    )


def test_extremal_atomic_support():
    # max(x/4, b) with b in {1, 2}: fixed points are x = b, and both
    # atoms map {1, 2} into itself, so the support is exactly {1, 2}
    spec = _atomic_extremal()
    cloud = support.enumerate_fixed_points(spec, max_depth=6)
    assert np.allclose(np.sort(cloud.points), [1.0, 2.0], atol=1e-9)
    batch = stationary_batch(spec, 4096, master_seed=6)
    rep = support.coverage_check(cloud, batch.samples, epsilon=1e-6)
    assert rep.fraction_covered == 1.0


def test_word_guard_capacity():
    # 2 + 4 + ... + 32 = 62 words through depth 5, 126 through depth 6
    spec = _two_atom_affine()
    with pytest.raises(CapacityError, match="exceeded the 100 guard at depth 6$"):
        support.enumerate_fixed_points(spec, max_depth=30, word_guard=100)


def test_nonatomic_law_rejected(bench_spec):
    with pytest.raises(PreconditionError):
        support.enumerate_fixed_points(bench_spec, max_depth=4)


def test_fixed_point_certificate(letac_spec):
    atoms = [th for th, _ in models.theta_atoms(letac_spec)]
    contracting = [th for th in atoms if models.lipschitz_bound(letac_spec, th) < 1]
    word = [contracting[0]]
    x = fixed_point(letac_spec, word, tol=1e-12)
    fx = compose(letac_spec, word, x)
    assert abs(fx - x) <= 1e-11


def test_fixed_point_rejects_expansion(letac_spec):
    atoms = [th for th, _ in models.theta_atoms(letac_spec)]
    expanding = [th for th in atoms if models.lipschitz_bound(letac_spec, th) > 1]
    with pytest.raises(PreconditionError):
        fixed_point(letac_spec, [expanding[0]])
    with pytest.raises(PreconditionError):
        fixed_point(letac_spec, [])


def test_coverage_check_guards(letac_spec):
    cloud = support.enumerate_fixed_points(letac_spec, max_depth=4)
    with pytest.raises(PreconditionError):
        support.coverage_check(cloud, np.zeros(4), epsilon=0.0)
    with pytest.raises(PreconditionError):  # nan compares false with 0 too
        support.coverage_check(cloud, np.zeros(4), epsilon=float("nan"))


def _two_dimensional_affine():
    return models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.constant(0.5),
            "angle": rnd.discrete(atoms=(0.0, 1.5707963267948966), weights=(0.5, 0.5)),
            "shift_1": rnd.constant(1.0),
            "shift_2": rnd.constant(0.0),
        },
    )


def test_two_dimensional_cloud():
    spec = _two_dimensional_affine()
    cloud = support.enumerate_fixed_points(spec, max_depth=5)
    assert cloud.points.shape[1] == 2
    batch = stationary_batch(spec, 2048, master_seed=8)
    rep = support.coverage_check(cloud, batch.samples, epsilon=0.2)
    assert rep.fraction_covered > 0.5  # depth-5 cloud, coarse epsilon


def _reference_cloud(spec, max_depth):
    """The word-at-a-time enumeration: breadth-first words, the scalar
    fixed_point per contracting word, then the greedy dedupe in order."""
    atoms = [th for th, _ in models.theta_atoms(spec)]
    lips = [float(models.lipschitz_bound(spec, th)) for th in atoms]
    points, depths = [], []
    frontier = [((), 1.0)]
    for depth in range(1, max_depth + 1):
        nxt = []
        for word, prod in frontier:
            for i, lip in enumerate(lips):
                w, p = word + (i,), prod * lip
                if p < 1.0:
                    pt = fixed_point(spec, [atoms[j] for j in w])
                    points.append(np.atleast_1d(np.asarray(pt, dtype=float)))
                    depths.append(depth)
                if p <= support.PRUNE_PRODUCT:
                    nxt.append((w, p))
        frontier = nxt
    kept = []
    for p, dep in zip(points, depths):
        if all(np.linalg.norm(p - q) > support.DEDUPE_TOL for q, _ in kept):
            kept.append((p, dep))
    pts = np.vstack([p for p, _ in kept])
    return (pts[:, 0] if pts.shape[1] == 1 else pts), np.array([d for _, d in kept])


def _letac():
    return models.make_model(
        "letac",
        laws={
            "a": rnd.discrete((1.0 / 3.0, 2.0), (0.75, 0.25)),
            "b": rnd.constant(0.5),
            "c": rnd.constant(-1.0),
        },
    )


@pytest.mark.parametrize(
    "make, depth",
    [
        (_letac, 10),
        (_two_atom_affine, 8),
        (_atomic_extremal, 6),
        (_two_dimensional_affine, 5),
        (_two_dimensional_affine, 8),
    ],
)
def test_level_enumeration_matches_word_at_a_time(make, depth):
    spec = make()
    cloud = support.enumerate_fixed_points(spec, max_depth=depth)
    want_points, want_depths = _reference_cloud(spec, depth)
    assert cloud.points.tobytes() == want_points.tobytes()
    assert cloud.points.shape == want_points.shape
    assert np.array_equal(cloud.depths, want_depths)


def test_level_enumeration_three_dimensional():
    # the d = 3 rotation is elementwise (no BLAS dot), so a batched
    # level rounds exactly like the word-at-a-time reference
    spec = models.make_model(
        "affine",
        dimension=3,
        laws={
            "scale": rnd.constant(0.5),
            "angle": rnd.discrete(atoms=(0.3, 2.1), weights=(0.5, 0.5)),
            "shift_1": rnd.constant(1.0),
            "shift_2": rnd.constant(0.0),
            "shift_3": rnd.discrete(atoms=(0.0, 0.5), weights=(0.5, 0.5)),
        },
        constants={"axis": (1.0, 2.0, 0.5)},
    )
    cloud = support.enumerate_fixed_points(spec, max_depth=3)
    want_points, want_depths = _reference_cloud(spec, 3)
    assert np.array_equal(cloud.depths, want_depths)
    assert cloud.points.tobytes() == want_points.tobytes()
    assert cloud.points.shape == want_points.shape


def test_dedupe_keeps_greedy_survivors():
    # 0 is kept; 0.6e-8 is within 1e-8 of it and dropped; 1.2e-8 is
    # within 1e-8 of the dropped point only, so the greedy rule keeps it;
    # the repeat of 0 and 1.9e-8 fall to the kept points
    pts = np.array([0.0, 0.6e-8, 1.2e-8, 0.0, 1.9e-8, 5.0])
    assert support._dedupe(pts, 1e-8).tolist() == [0, 2, 5]
    assert support._dedupe(pts, -1.0).tolist() == list(range(6))


# ---------------------------------------------------------------------------
# 1-d neighbour search against scipy's kd-tree, the d >= 2 path


def _tree_pairs_within(points, r):
    from scipy.spatial import cKDTree

    return cKDTree(support._as_2d(points)).query_pairs(r, output_type="ndarray")


def _tree_nearest_distance(points, samples):
    from scipy.spatial import cKDTree

    return cKDTree(support._as_2d(points)).query(support._as_2d(samples), k=1)[0]


def _pair_set(pairs):
    return set(map(tuple, np.asarray(pairs).tolist()))


@pytest.mark.parametrize(
    "points, r",
    [
        # eighths: exact differences, many repeats, r between two spacings
        (np.random.default_rng(1).integers(-20, 20, 300) / 8.0, 0.3),
        (np.random.default_rng(2).normal(size=2000), 1e-3),
        (np.array([0.7]), 1.0),
        (np.array([2.0, 2.0, 2.0, -1.0]), 1e-150),  # the negative-tol radius
    ],
)
def test_pairs_within_matches_kd_tree(points, r):
    got = support._pairs_within(points, r)
    assert got.shape[1] == 2 and np.all(got[:, 0] < got[:, 1])
    assert len(got) == len(_pair_set(got))
    assert _pair_set(got) == _pair_set(_tree_pairs_within(points, r))


def test_dedupe_pairs_at_tol_and_inside_margin(monkeypatch):
    # binary-exact points: 0 -> tol is exactly tol apart (a duplicate by the
    # norm test); 3 tol -> 4 tol + tol/2**21 lies inside the search's 1e-6
    # margin, so it is proposed but the norm keeps both
    tol = 2.0**-20
    pts = np.array([0.0, tol, 3 * tol, 4 * tol + tol * 2.0**-21, 0.0, 9 * tol])
    r = tol * (1.0 + 1e-6)
    proposed = _pair_set(support._pairs_within(pts, r))
    assert {(0, 1), (2, 3), (0, 4), (1, 4)} <= proposed
    assert proposed == _pair_set(_tree_pairs_within(pts, r))
    assert support._dedupe(pts, tol).tolist() == [0, 2, 3, 5]
    assert support._dedupe(pts, -1.0).tolist() == list(range(6))
    # these two differ by just over 1e-8 but their rounded difference is
    # 1e-8, so the norm calls them duplicates; only the margin finds them
    pair = np.array([2.742167937922779e-09, 1.274216793792278e-08])
    assert pair[1] - pair[0] == 1e-8 and pair[1] > pair[0] + 1e-8
    assert support._dedupe(pair, 1e-8).tolist() == [0]
    monkeypatch.setattr(support, "_pairs_within", _tree_pairs_within)
    assert support._dedupe(pts, tol).tolist() == [0, 2, 3, 5]
    assert support._dedupe(pts, -1.0).tolist() == list(range(6))
    assert support._dedupe(pair, 1e-8).tolist() == [0]


@pytest.mark.parametrize(
    "cloud",
    [
        np.array([0.25]),
        np.array([0.5, 0.5, 0.0, 1.0, 1.0, 0.5]),
        np.random.default_rng(3).uniform(0.0, 1.0, 500),
    ],
)
def test_nearest_distance_matches_kd_tree(cloud):
    # samples on both sides of the cloud's range, on its points and between
    samples = np.concatenate(
        [np.random.default_rng(4).uniform(-3.0, 4.0, 4000), cloud, [-1e150, 1e150]]
    )
    got = support._nearest_distance(cloud, samples)
    assert got.dtype == np.float64 and got.shape == samples.shape
    assert got.tobytes() == _tree_nearest_distance(cloud, samples).tobytes()


def test_nearest_distance_beyond_tree_range():
    # the tree squares distances, so below about 1.5e-154 it loses them
    # (to 0 below about 1e-162) and above about 1.3e154 it overflows to
    # inf; the sorted neighbours give |x - p| throughout
    cloud = np.array([0.0, 1.0])
    x = np.array([1e-160, -3e-170, 2e-155, 5e-324, 1e-100, -1e300])
    got = support._nearest_distance(cloud, x)
    assert np.array_equal(got, np.abs(x))
    tree = _tree_nearest_distance(cloud, x)
    assert tree[1] == 0.0 and tree[4] == got[4] and tree[5] == np.inf


def test_public_neighbour_searches_match_kd_tree(monkeypatch):
    rng = np.random.default_rng(5)
    spec = _two_atom_affine()
    clouds = [
        # clustered around the dedupe tolerance, with exact repeats
        rng.integers(0, 300, 2000) * 7e-9 + rng.choice([0.0, 3e-9], 2000),
        rng.uniform(0.0, 1.0, 1000),
        np.round(rng.uniform(0.0, 1.0, 1000), 3),
    ]
    samples = rng.uniform(-0.5, 1.5, 5000)

    def results():
        out = []
        for pts in clouds:
            cloud = support.SupportCloud(pts, np.ones(len(pts), int), 1e-3)
            out.append(support._dedupe(pts, support.DEDUPE_TOL).tolist())
            out.append(support._dedupe(pts, 1e-3).tolist())
            out.append(support.coverage_check(cloud, samples, 1e-3))
            out.append(support.closure_frontier(spec, cloud))
        return out

    got = results()
    monkeypatch.setattr(support, "_pairs_within", _tree_pairs_within)
    monkeypatch.setattr(support, "_nearest_distance", _tree_nearest_distance)
    assert got == results()
