import ast
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liprec import cramer, randomness as rnd
from liprec.errors import ConfigError


def test_stream_reproducible_across_instances():
    a = rnd.stream(123, replica=4, purpose="draws").uniform(size=256)
    b = rnd.stream(123, replica=4, purpose="draws").uniform(size=256)
    assert np.array_equal(a, b)


def test_stream_keys_separate_streams():
    base = rnd.stream(123, 0, "draws").uniform(size=64)
    assert not np.array_equal(base, rnd.stream(124, 0, "draws").uniform(size=64))
    assert not np.array_equal(base, rnd.stream(123, 1, "draws").uniform(size=64))
    assert not np.array_equal(base, rnd.stream(123, 0, "other").uniform(size=64))


# the first draws of stream(0, 0, "pin"): a change of bit generator or of
# seeding moves every sampled output, so it must move these too
PIN_RANDOM = (
    "0x1.947cf8eb1ada8p-1", "0x1.3fefb6465732cp-2", "0x1.0ba56998cfaecp-1", "0x1.87821564dcbe6p-1",
)
PIN_NORMAL = (
    "0x1.abf13a41578bfp-1", "-0x1.04ac41a1c625fp-1", "0x1.8d410bccdfec8p-3", "0x1.1fcd188816adcp-2",
)


def test_stream_first_draws_are_pinned():
    assert rnd.BIT_GENERATOR is np.random.SFC64
    assert isinstance(rnd.stream(0, 0, "pin").bit_generator, rnd.BIT_GENERATOR)
    assert tuple(v.hex() for v in rnd.stream(0, 0, "pin").random(4)) == PIN_RANDOM
    assert tuple(v.hex() for v in rnd.stream(0, 0, "pin").standard_normal(4)) == PIN_NORMAL


@pytest.mark.parametrize("key", [(0, 1, "pin"), (0, 0, "pin2"), (1, 0, "pin")])
def test_each_stream_key_moves_the_first_draw(key):
    assert rnd.stream(*key).random().hex() != PIN_RANDOM[0]


def _built_generators(tree):
    """(line, name) of each bit generator, default_rng or SeedSequence call."""
    names = {"default_rng", "SeedSequence", "Generator", "RandomState"} | {
        n for n in dir(np.random)
        if isinstance(getattr(np.random, n), type)
        and issubclass(getattr(np.random, n), np.random.BitGenerator)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                yield node.lineno, name


def test_randomness_is_the_one_owner_of_generators():
    # every stream comes from randomness.stream, so the bit generator and
    # the seeding are changed in one place
    owner = pathlib.Path(rnd.__file__)
    assert list(_built_generators(ast.parse(owner.read_text()))), "scan finds nothing"
    stray = [
        (path.name, line, name)
        for path in sorted(owner.parent.glob("*.py")) if path != owner
        for line, name in _built_generators(ast.parse(path.read_text()))
    ]
    assert stray == []


def test_replica_streams_uncorrelated():
    n = 100_000
    x = rnd.stream(9, 0, "pair").normal(size=n)
    y = rnd.stream(9, 1, "pair").normal(size=n)
    corr = abs(float(np.corrcoef(x, y)[0, 1]))
    assert corr < 0.01


@pytest.mark.parametrize(
    "dist",
    [
        rnd.lognormal(-0.4, 0.9),
        rnd.discrete((0.25, 1.5, 3.0), (0.5, 0.3, 0.2)),
        rnd.constant(1.7),
    ],
    ids=["lognormal", "discrete", "constant"],
)
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_closed_moments_match_monte_carlo(dist, s):
    closed = rnd.abs_moment(dist, s)
    assert closed is not None
    g = rnd.stream(31, 0, "moments")
    x = np.abs(rnd.sample(dist, g, 1_000_000)) ** s
    se = float(x.std() / math.sqrt(len(x)))
    assert abs(float(x.mean()) - closed) <= 4 * se + 1e-12


def test_moment_absent_for_unbounded_kinds():
    # closed moments exist only for atomic and lognormal laws
    assert rnd.abs_moment(rnd.uniform(0.1, 2.3), 1.0) is None
    assert rnd.abs_moment(rnd.normal(0.4, 1.2), 1.0) is None


def test_mc_moment_helper_matches_closed():
    dist = rnd.lognormal(0.2, 0.5)
    val, se = cramer.moments(dist, "monte_carlo", rnd.stream(3, 0, "m"), 400_000)(1.3)
    assert abs(val - rnd.abs_moment(dist, 1.3)) <= 4 * se


def test_abs_log_moment_lognormal():
    # E M^s log M = (mu + s sigma^2) kappa(s) for log M ~ N(mu, sigma^2)
    mu, sig = -0.75, 1.0
    got = rnd.abs_log_moment(rnd.lognormal(mu, sig), 1.5)
    kap = math.exp(1.5 * mu + 1.125 * sig * sig)
    assert got == pytest.approx((mu + 1.5 * sig * sig) * kap, rel=1e-12)


def test_signed_mean_closed_forms():
    assert rnd.signed_mean(rnd.constant(-2.5)) == -2.5
    assert rnd.signed_mean(rnd.discrete((1.0, -3.0), (0.25, 0.75))) == pytest.approx(-2.0)
    assert rnd.signed_mean(rnd.lognormal(-1.0, 1.0)) == pytest.approx(math.exp(-0.5))
    assert rnd.signed_mean(rnd.uniform(0.0, 3.0)) == pytest.approx(1.5)
    assert rnd.signed_mean(rnd.normal(0.7, 2.0)) == pytest.approx(0.7)


def test_distribution_validation():
    with pytest.raises(ConfigError):
        rnd.DistributionSpec("lognormal", params=(0.0,))  # sigma missing
    with pytest.raises(ConfigError):
        rnd.DistributionSpec("uniform", params=(2.0, 1.0))  # empty interval
    with pytest.raises(ConfigError):
        rnd.discrete((1.0, 2.0), (0.4, 0.4))  # weights do not sum to 1
    with pytest.raises(ConfigError):
        rnd.DistributionSpec("cauchy", params=(0.0, 1.0))  # unsupported kind
    # nan and inf pass every <= and < test above, so each is refused by name
    inf, nan = math.inf, math.nan
    for make in (
        lambda: rnd.constant(inf),
        lambda: rnd.lognormal(nan, 1.0),
        lambda: rnd.lognormal(0.0, inf),
        lambda: rnd.normal(0.0, nan),
        lambda: rnd.uniform(0.0, inf),
        lambda: rnd.discrete((1.0, inf), (0.5, 0.5)),
        lambda: rnd.discrete((1.0, 2.0), (nan, nan)),
    ):
        with pytest.raises(ConfigError, match="must be finite"):
            make()


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.05, max_value=2))
def test_lognormal_moment_formula(mu, sigma):
    dist = rnd.lognormal(mu, sigma)
    s = 1.25
    assert rnd.abs_moment(dist, s) == pytest.approx(
        math.exp(s * mu + 0.5 * s * s * sigma * sigma), rel=1e-12
    )


def test_arithmetic_risk_flags():
    assert rnd.arithmetic_risk(rnd.constant(2.0))
    assert rnd.arithmetic_risk(rnd.discrete((0.5, 2.0), (0.5, 0.5)))
    assert not rnd.arithmetic_risk(rnd.discrete((0.5, 1.0, 2.0), (0.3, 0.3, 0.4)))
    assert not rnd.arithmetic_risk(rnd.lognormal(0.0, 1.0))


def test_derived_laws():
    sc = rnd.scaled_abs_law(rnd.discrete((-1.0, 2.0), (0.5, 0.5)), 3.0)
    assert sorted(sc.atoms) == [3.0, 6.0]
    pw = rnd.power_law(rnd.lognormal(-0.5, 1.0), 0.5)
    assert pw.kind == "lognormal" and pw.params == (-0.25, 0.5)
    al = rnd.abs_law(rnd.discrete((-2.0, 2.0), (0.5, 0.5)))
    assert set(al.atoms) == {2.0}
    assert sum(al.weights) == pytest.approx(1.0)
    assert rnd.atoms(rnd.constant(-2.0)) == [(-2.0, 1.0)]
    assert rnd.atoms(rnd.discrete((1.0, 3.0), (0.25, 0.75))) == [(1.0, 0.25), (3.0, 0.75)]
    assert rnd.atoms(rnd.normal(0.0, 1.0)) is None
    # a transformed constant stays a constant, which draws nothing from the
    # stream; a discrete law would draw through rng.choice
    c = rnd.constant(-2.0)
    assert rnd.scaled_abs_law(c, 3.0) == rnd.constant(6.0)
    assert rnd.abs_law(c) == rnd.constant(2.0)
    assert rnd.abs_affine_law(c, 1.0, 0.5) == rnd.constant(0.0)
    assert rnd.power_law(rnd.constant(4.0), 0.5) == rnd.constant(2.0)
    assert rnd.power_law(c, 0.5) is None


def test_sample_shapes_and_support(rng):
    x = rnd.sample(rnd.uniform(0.5, 1.5), rng, 1000)
    assert x.shape == (1000,) and x.min() >= 0.5 and x.max() <= 1.5
    y = rnd.sample(rnd.constant(4.0), rng, 7)
    # a read-only view with np.full's bytes
    assert y.tobytes() == np.full(7, 4.0).tobytes() and not y.flags.writeable
    z = rnd.sample(rnd.discrete((1.0, 5.0), (0.9, 0.1)), rng, 2000)
    assert set(np.unique(z)) <= {1.0, 5.0}


def test_lognormal_draws_exp_of_the_stream_normals():
    # exp(mu + sigma z) of the normals rng.lognormal would draw, through
    # numpy's vector exp: the stream ends where rng.lognormal leaves it
    mu, sigma, n = -0.75, 1.0, 100_000
    got_rng, z_rng, ref_rng = (rnd.stream(41, 0, "lognormal") for _ in range(3))
    got = rnd.sample(rnd.lognormal(mu, sigma), got_rng, n)
    z = z_rng.standard_normal(n)
    assert np.array_equal(got, np.exp(mu + sigma * z))
    ref = ref_rng.lognormal(mu, sigma, n)
    assert np.abs(got.view(np.int64) - ref.view(np.int64)).max() <= 1  # ulps
    assert got_rng.random() == z_rng.random() == ref_rng.random()


def test_lognormal_scalar_draws_equal_batch_draws():
    dist = rnd.lognormal(0.3, 0.7)
    one_rng, batch_rng = rnd.stream(42, 0, "lognormal"), rnd.stream(42, 0, "lognormal")
    scalars = [rnd.sample(dist, one_rng) for _ in range(257)]
    assert all(type(v) is float for v in scalars)
    assert scalars == rnd.sample(dist, batch_rng, 257).tolist()


def test_lognormal_overflow_is_inf_without_warning():
    dist = rnd.lognormal(700.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = rnd.sample(dist, rnd.stream(43, 0, "lognormal"), 1000)
        first_inf = int(np.argmax(np.isinf(x)))
        g = rnd.stream(43, 0, "lognormal")
        scalars = [rnd.sample(dist, g) for _ in range(first_inf + 1)]
    assert np.isinf(x).any() and not np.isnan(x).any()
    assert scalars[-1] == math.inf
