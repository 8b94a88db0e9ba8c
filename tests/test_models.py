import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liprec import models, randomness as rnd
from liprec.errors import ConfigError, DomainError
from liprec.randomness import stream

from _util import reference_apply, reference_apply_dilated, reference_sample_sqrtquad


def _catalog():
    """One representative spec per family, continuous laws where natural."""
    return {
        "affine": models.make_model(
            "affine",
            laws={"scale": rnd.lognormal(-0.6, 0.7), "shift": rnd.normal(0.3, 1.0)},
        ),
        "extremal": models.make_model(
            "extremal",
            laws={"a": rnd.lognormal(-0.75, 1.0), "b": rnd.uniform(0.5, 1.5)},
        ),
        "letac": models.make_model(
            "letac",
            laws={
                "a": rnd.lognormal(-0.8, 0.5),
                "b": rnd.uniform(0.0, 0.5),
                "c": rnd.normal(0.0, 0.5),
            },
        ),
        "sqrt_quadratic": models.make_model(
            "sqrt_quadratic",
            laws={
                "a": rnd.uniform(0.2, 0.7),
                "b": rnd.uniform(-0.2, 0.2),
                "c": rnd.uniform(0.5, 1.0),
            },
        ),
        "arch1": models.make_model(
            "arch1",
            laws={"a": rnd.normal(0.0, 0.6)},
            constants={"gamma": 0.3, "beta": 0.8, "lambda": 0.25},
        ),
    }


CATALOG = _catalog()
N_DRAWS = 10_000


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_lipschitz_bound_sampled(family):
    spec = CATALOG[family]
    g = stream(41, 0, f"lip-{family}")
    th = models.sample_theta(spec, g, N_DRAWS)
    x = g.normal(scale=3.0, size=N_DRAWS)
    y = g.normal(scale=3.0, size=N_DRAWS)
    lhs = np.abs(models.apply(spec, th, x) - models.apply(spec, th, y))
    rhs = models.lipschitz_bound(spec, th) * np.abs(x - y)
    assert np.all(lhs <= rhs + 1e-10)


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_dilation_approaches_limit_map(family):
    spec = CATALOG[family]
    g = stream(43, 0, f"dil-{family}")
    th = models.sample_theta(spec, g, N_DRAWS)
    x = g.normal(scale=2.0, size=N_DRAWS)
    t = g.uniform(1e-6, 1.0, size=N_DRAWS)
    lhs = np.abs(models.apply_dilated(spec, th, x, t) - models.limit_map(spec, th, x))
    rhs = t * models.smoothness_bound(spec, th)
    assert np.all(lhs <= rhs + 1e-10)


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_dilated_at_one_is_apply_bitwise(family):
    spec = CATALOG[family]
    g = stream(47, 0, f"one-{family}")
    th = models.sample_theta(spec, g, N_DRAWS)
    x = g.normal(scale=4.0, size=N_DRAWS)
    assert np.array_equal(models.apply_dilated(spec, th, x, 1.0), models.apply(spec, th, x))


DILATION_MODELS = {
    **CATALOG,
    "affine_d2": models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.lognormal(-0.7, 0.4),
            "angle": rnd.uniform(-1.0, 1.0),
            "shift_1": rnd.normal(1.0, 0.5),
            "shift_2": rnd.constant(0.0),
        },
    ),
    "affine_d3": models.make_model(
        "affine",
        dimension=3,
        laws={
            "scale": rnd.lognormal(-0.7, 0.4),
            "angle": rnd.uniform(-3.0, 3.0),
            "shift_1": rnd.constant(1.0),
            "shift_2": rnd.normal(0.0, 0.5),
            "shift_3": rnd.uniform(-1.0, 1.0),
        },
        constants={"axis": (1.0, 2.0, 0.5)},
    ),
}


@pytest.mark.parametrize("name", sorted(DILATION_MODELS))
def test_apply_dilated_matches_closed_form_reference_bitwise(name):
    spec = DILATION_MODELS[name]
    d = spec.dimension
    n = 512
    g = stream(61, 0, f"dilref-{name}")
    th = models.sample_theta(spec, g, n)

    def same(theta, x, t):
        got = models.apply_dilated(spec, theta, x, t)
        assert got.tobytes() == reference_apply_dilated(spec, theta, x, t).tobytes()

    # one point per draw, scalar t
    x = g.normal(scale=3.0, size=(n,) if d == 1 else (n, d))
    for t in (1e-3, 0.3, 1.0):
        same(th, x, t)
    if d == 1:  # one t per draw, as in test_dilation_approaches_limit_map
        same(th, x, g.uniform(1e-6, 1.0, size=n))
    # check_smoothness's layout: (n, 1) draws against a grid of points
    shaped = {k: np.reshape(v, (n, 1)) for k, v in th.items()}
    radii = np.linspace(0.0, 4.0, 5)
    grid = radii if d == 1 else np.concatenate([np.outer(radii, e) for e in np.eye(d)])
    for t in np.linspace(0.25, 1.0, 4):
        same(shaped, grid, t)
    if d == 1:  # and one t per draw, wider than the grid
        same(shaped, grid, g.uniform(1e-6, 1.0, size=(n, 1)))


@pytest.mark.parametrize("draws", ["batch", "single"])
@pytest.mark.parametrize("name", sorted(DILATION_MODELS))
def test_apply_into_out_matches_apply_bitwise(name, draws):
    # the forward engine's in-place step: a batch holds random parameters
    # and constant-law views; a single draw's floats broadcast over x.
    # Each family's map is written once, so both paths are held to the
    # map written out in plain arithmetic
    spec = DILATION_MODELS[name]
    d = spec.dimension
    n = 512
    g = stream(73, 0, f"into-{name}-{draws}")
    th = models.sample_theta(spec, g, n if draws == "batch" else None)
    x = g.normal(scale=3.0, size=(n,) if d == 1 else (n, d))
    want = reference_apply(spec, th, x)
    assert models.apply(spec, th, x).tobytes() == want.tobytes()
    fresh = np.empty_like(x)
    assert models.apply(spec, th, x, out=fresh) is fresh
    assert fresh.tobytes() == want.tobytes()
    same = x.copy()
    assert models.apply(spec, th, same, out=same) is same
    assert same.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_apply_on_a_scalar_keeps_its_type_and_value(family):
    spec = CATALOG[family]
    th = models.sample_theta(spec, stream(79, 0, f"scalar-{family}"))
    got = models.apply(spec, th, 0.7)
    # every map is ufunc calls, so a Python scalar gives an np.float64, a
    # float subclass
    assert type(got) is np.float64
    assert got == models.apply(spec, th, np.array([0.7]))[0]
    assert got == reference_apply(spec, th, 0.7)


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_cancellation_bound_on_positive_axis(family):
    # (H2) on the nonnegative axis, where every catalog family's
    # stationary support lives for these parameter choices
    spec = CATALOG[family]
    g = stream(53, 0, f"canc-{family}")
    th = models.sample_theta(spec, g, N_DRAWS)
    x = g.uniform(0.0, 5.0, size=N_DRAWS)
    lhs = np.abs(models.apply(spec, th, x) - models.linear_apply(spec, th, x))
    assert np.all(lhs <= models.cancellation_bound(spec, th) + 1e-10)


def test_cancellation_fails_off_support_for_extremal():
    # max(ax, b) is affine-like only on x >= 0: at negative x the defect
    # exceeds 2|b| as soon as a is large enough
    spec = CATALOG["extremal"]
    g = stream(59, 0, "canc-neg")
    th = models.sample_theta(spec, g, 2000)
    x = np.full(2000, -5.0)
    lhs = np.abs(models.apply(spec, th, x) - models.linear_apply(spec, th, x))
    assert np.any(lhs > models.cancellation_bound(spec, th) + 1e-10)


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_limit_map_positive_homogeneity(family):
    spec = CATALOG[family]
    g = stream(61, 0, f"hom-{family}")
    th = models.sample_theta(spec, g, N_DRAWS)
    x = g.normal(scale=2.0, size=N_DRAWS)
    for s in (0.25, 1.0, 7.5):
        a = models.limit_map(spec, th, s * x)
        b = s * models.limit_map(spec, th, x)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-13)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(-50, 50))
def test_extremal_homogeneity_pointwise(s, x):
    spec = CATALOG["extremal"]
    th = {"a": 0.7, "b": 1.3}
    lhs = models.limit_map(spec, th, s * x)
    rhs = s * models.limit_map(spec, th, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_rotation_preserves_length_d2():
    spec = models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.constant(1.0),
            "angle": rnd.uniform(-math.pi, math.pi),
            "shift_1": rnd.constant(0.0),
            "shift_2": rnd.constant(0.0),
        },
    )
    g = stream(67, 0, "rot2")
    th = models.sample_theta(spec, g, 500)
    x = g.normal(size=(500, 2))
    y = models.apply(spec, th, x)
    assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-12)


def test_rotation_preserves_length_and_axis_d3():
    axis = (0.0, 0.0, 1.0)
    spec = models.make_model(
        "affine",
        dimension=3,
        laws={
            "scale": rnd.constant(1.0),
            "angle": rnd.uniform(-math.pi, math.pi),
            "shift_1": rnd.constant(0.0),
            "shift_2": rnd.constant(0.0),
            "shift_3": rnd.constant(0.0),
        },
        constants={"axis": axis},
    )
    g = stream(71, 0, "rot3")
    th = models.sample_theta(spec, g, 500)
    x = g.normal(size=(500, 3))
    y = models.apply(spec, th, x)
    assert np.allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-12)
    # the rotation axis component is untouched
    assert np.allclose(y[:, 2], x[:, 2], rtol=1e-12)


def test_sqrt_quadratic_discriminant_guard():
    spec = CATALOG["sqrt_quadratic"]
    bad = {"a": 1.0, "b": 4.0, "c": 1.0}
    with pytest.raises(DomainError):
        models.apply(spec, bad, np.array([0.5]))


def test_sqrt_quadratic_rejection_exhaustion():
    spec = models.make_model(
        "sqrt_quadratic",
        laws={
            "a": rnd.constant(1.0),
            "b": rnd.constant(4.0),  # b^2 >= 4ac always: rejection can never succeed
            "c": rnd.constant(1.0),
        },
    )
    with pytest.raises(ConfigError):
        models.sample_theta(spec, stream(73, 0, "rej"), 8)


# a in {0.25, 1}, b in {-3, 0.2}, c = 1: (0.25, -3, 1) and (1, -3, 1) have
# b^2 - 4ac >= 0, so the sampler redraws them and draws the other two
_SQRTQUAD_ATOMS = {
    "a": rnd.discrete((0.25, 1.0), (0.5, 0.5)),
    "b": rnd.discrete((-3.0, 0.2), (0.5, 0.5)),
    "c": rnd.constant(1.0),
}


def test_theta_atoms_are_the_law_the_sampler_draws():
    spec = models.make_model("sqrt_quadratic", laws=_SQRTQUAD_ATOMS)
    pairs = models.theta_atoms(spec)
    assert pairs == [
        ({"a": 0.25, "b": 0.2, "c": 1.0}, 0.5),
        ({"a": 1.0, "b": 0.2, "c": 1.0}, 0.5),
    ]
    draws = models.sample_theta(spec, stream(74, 0, "atoms"), 20000)
    assert set(zip(draws["a"].tolist(), draws["b"].tolist())) == {(0.25, 0.2), (1.0, 0.2)}
    # no tuple outside the domain: the product law as it was
    inside = dict(_SQRTQUAD_ATOMS, b=rnd.discrete((-0.5, 0.2), (0.3, 0.7)))
    pairs = models.theta_atoms(models.make_model("sqrt_quadratic", laws=inside))
    assert [p for _, p in pairs] == [0.5 * 0.3, 0.5 * 0.7, 0.5 * 0.3, 0.5 * 0.7]
    bounds = models.cancellation_law(spec)
    assert all(map(math.isfinite, bounds.atoms)) and math.isclose(sum(bounds.weights), 1.0)


def test_theta_atoms_refuse_a_law_with_no_tuple_in_the_domain():
    laws = dict(_SQRTQUAD_ATOMS, b=rnd.discrete((-3.0, 2.0), (0.5, 0.5)))
    spec = models.make_model("sqrt_quadratic", laws=laws)
    with pytest.raises(ConfigError) as err:
        models.theta_atoms(spec)
    assert str(err.value) == (
        "no atom tuple of [distributions.a], [distributions.b], [distributions.c] "
        "with positive weight has a > 0 and b^2 - 4ac < 0"
    )


SQRTQUAD_LAWS = {
    # lognormal a and uniform b break b^2 - 4ac < 0 in about 1 draw in 10,
    # so each batch takes redraws
    "all_random": {
        "a": rnd.lognormal(-1.5, 1.0), "b": rnd.uniform(-0.6, 0.6), "c": rnd.uniform(0.5, 1.5)
    },
    "c_constant": {"a": rnd.lognormal(-1.5, 1.0), "b": rnd.uniform(-0.6, 0.6), "c": rnd.constant(1.0)},
    "b_constant": {"a": rnd.lognormal(-1.5, 1.0), "b": rnd.constant(0.5), "c": rnd.normal(1.0, 0.3)},
    "a_b_constant": {"a": rnd.constant(0.25), "b": rnd.constant(0.5), "c": rnd.normal(1.0, 0.8)},
}


def test_sqrt_quadratic_scale_law_is_conditioned_on_the_domain():
    # a in {0.09, 2.25}, b in {-0.7, 0.2}, c = 1: only (0.09, -0.7, 1) is
    # redrawn, so the sampler's a is 0.09 with probability 1/3, not 1/2
    laws = {
        "a": rnd.discrete((0.09, 2.25), (0.5, 0.5)),
        "b": rnd.discrete((-0.7, 0.2), (0.5, 0.5)),
        "c": rnd.constant(1.0),
    }
    law = models.linear_scale_law(models.make_model("sqrt_quadratic", laws=laws))
    mass = {}
    for v, w in zip(law.atoms, law.weights):
        mass[v] = mass.get(v, 0.0) + w
    assert law.kind == "discrete" and mass == pytest.approx({0.3: 1 / 3, 1.5: 2 / 3}, abs=1e-15)


@pytest.mark.parametrize(
    "laws, kept",
    [
        # no tuple dropped and no draw ever redrawn: sqrt(a) under a's own law
        (dict(_SQRTQUAD_ATOMS, b=rnd.discrete((-0.5, 0.2), (0.3, 0.7))), True),
        ({"a": rnd.lognormal(-1.5, 1.0), "b": rnd.constant(0.0), "c": rnd.uniform(0.5, 1.5)}, True),
        # b^2 <= 0.36 < 4 a c >= 2
        (dict(a=rnd.discrete((1.0, 2.0), (0.5, 0.5)), b=rnd.uniform(-0.6, 0.6), c=rnd.uniform(0.5, 1.5)),
         True),
        # a continuous law whose range allows a redraw: no |M| law
        *((laws, False) for laws in SQRTQUAD_LAWS.values()),
        (dict(a=rnd.discrete((0.09, 2.25), (0.5, 0.5)), b=rnd.uniform(-0.7, 0.2), c=rnd.constant(1.0)),
         False),
    ],
    ids=["atoms-inside", "lognormal-b0", "atoms-bounded-b", *SQRTQUAD_LAWS, "atoms-uniform-b"],
)
def test_sqrt_quadratic_scale_law_only_where_no_draw_is_redrawn(laws, kept):
    spec = models.make_model("sqrt_quadratic", laws=laws)
    assert models.linear_scale_law(spec) == (rnd.power_law(laws["a"], 0.5) if kept else None)


@pytest.mark.parametrize("name", sorted(SQRTQUAD_LAWS))
def test_sqrt_quadratic_sample_matches_copying_reference(name):
    # the same values and stream reads as a sampler that copies every
    # parameter and redraws all three; a constant law's batch stays the
    # read-only view that every other family's constant batch is
    laws = SQRTQUAD_LAWS[name]
    spec = models.make_model("sqrt_quadratic", laws=laws)
    for seed in range(3):
        rng, ref_rng, first_rng = (stream(seed, 0, "sq") for _ in range(3))
        got = models.sample_theta(spec, rng, 5000)
        want = reference_sample_sqrtquad(spec, ref_rng, 5000)
        for k, law in laws.items():
            assert got[k].tobytes() == want[k].tobytes()
            assert got[k].flags.writeable == (law.kind != "constant")
        assert rng.random() == ref_rng.random()  # the streams read as far
        # the first draws break the discriminant, so the batch took redraws
        a, b, c = (rnd.sample(laws[k], first_rng, 5000) for k in "abc")
        assert np.count_nonzero(b * b - 4.0 * a * c >= 0) > 50
    one = models.sample_theta(spec, stream(7, 0, "sq"))
    assert all(type(v) is float for v in one.values())


def test_arch1_requires_symmetric_innovation():
    with pytest.raises(ConfigError):
        models.make_model(
            "arch1",
            laws={"a": rnd.lognormal(0.0, 1.0)},  # positive law, not symmetric
            constants={"gamma": 0.3, "beta": 0.8, "lambda": 0.25},
        )


def test_make_model_validates_parameters():
    with pytest.raises(ConfigError):
        models.make_model("extremal", laws={"a": rnd.constant(0.5)})  # b missing
    with pytest.raises(ConfigError):
        models.make_model(
            "extremal",
            laws={"a": rnd.constant(0.5), "b": rnd.constant(1.0), "z": rnd.constant(0.0)},
        )
    with pytest.raises(ConfigError):
        models.make_model("nosuch", laws={})
    with pytest.raises(ConfigError):
        models.make_model(
            "extremal",
            dimension=2,
            laws={"a": rnd.constant(0.5), "b": rnd.constant(1.0)},
        )


def test_theta_bounds_match_family_formulas():
    spec = CATALOG["arch1"]
    th = {"a": -1.5}
    assert models.lipschitz_bound(spec, th) == pytest.approx(0.3 + math.sqrt(0.25) * 1.5)
    assert models.cancellation_bound(spec, th) == pytest.approx(math.sqrt(0.8) * 1.5)
    e_th = {"a": 0.4, "b": -2.0}
    e_spec = CATALOG["extremal"]
    assert models.lipschitz_bound(e_spec, e_th) == 0.4
    assert models.cancellation_bound(e_spec, e_th) == pytest.approx(4.0)
    assert models.smoothness_bound(e_spec, e_th) == pytest.approx(2.0)
