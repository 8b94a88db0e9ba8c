import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from liprec import chains, models, randomness

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bench_spec():
    """Extremal benchmark with tail exponent exactly 1.5 by closed form."""
    return models.make_model(
        "extremal",
        laws={
            "a": randomness.lognormal(-0.75, 1.0),
            "b": randomness.constant(1.0),
        },
    )


@pytest.fixture(scope="session")
def letac_spec():
    """Bounded-support counterexample law."""
    return models.make_model(
        "letac",
        laws={
            "a": randomness.discrete((1.0 / 3.0, 2.0), (0.75, 0.25)),
            "b": randomness.constant(0.5),
            "c": randomness.constant(-1.0),
        },
    )


@pytest.fixture(scope="session")
def bench_batch_100k(bench_spec):
    return chains.stationary_batch(
        bench_spec, 100_000, tol=1e-9, master_seed=1001, threads=4, keep_bounds=True
    )


@pytest.fixture(scope="session")
def bench_batch_1m(bench_spec):
    return chains.stationary_batch(bench_spec, 1_000_000, tol=1e-9, master_seed=77, threads=4)


@pytest.fixture(scope="session")
def letac_batch_10k(letac_spec):
    return chains.stationary_batch(letac_spec, 10_000, tol=1e-9, master_seed=5, threads=2)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20240817)))
