import numpy as np
import pytest

from leakmit import cluster_functions, gen_branch_loop, gen_mod_exp
from leakmit.clustering import ObservationClass, ObservationClassSet
from leakmit.timing import PublicGrid

BINOMIAL_SIZES = (10.0, 45.0, 120.0, 210.0, 252.0, 210.0, 120.0, 45.0, 10.0, 1.0)


def make_classset(sizes, reps=None, grid_points=4, rng=None, baseline=None):
    """Observation-class set with the given sizes and representatives.

    When reps is omitted, representatives are random functions sorted by
    mean (rng required) or evenly spaced constants.  Penalties follow from
    the representatives, so they are monotone along the class order.
    baseline overrides the normalizing mean time, which lets a test pin
    penalties to exact values like j - i.
    """
    k = len(sizes)
    grid = PublicGrid(tuple(float(i + 1) for i in range(grid_points)))
    if reps is None:
        if rng is not None:
            raw = rng.uniform(1.0, 10.0, size=(k, grid_points))
            raw = raw[np.argsort(raw.mean(axis=1), kind="stable")]
        else:
            raw = np.array(
                [np.full(grid_points, float(i + 1)) for i in range(k)]
            )
    else:
        raw = np.asarray(reps, dtype=float)
    classes = []
    next_secret = 0
    for i in range(k):
        count = max(1, int(round(sizes[i])))
        members = frozenset(range(next_secret, next_secret + count))
        next_secret += count
        classes.append(ObservationClass(raw[i], members))
    if baseline is None:
        baseline = float(raw.mean())
    return ObservationClassSet(grid, tuple(classes), baseline)


def random_classset(rng, k, grid_points=4, size_hi=50):
    sizes = rng.integers(1, size_hi + 1, size=k)
    return make_classset([float(s) for s in sizes], grid_points=grid_points, rng=rng)


@pytest.fixture(scope="session")
def binomial_dataset():
    return gen_mod_exp(10, 1.0, 0.0, seed=0)


@pytest.fixture(scope="session")
def binomial_classes(binomial_dataset):
    return cluster_functions(binomial_dataset, 1e-6)


@pytest.fixture(scope="session")
def grouped_dataset():
    return gen_branch_loop(
        (5, 5, 5, 10), (1.0, 2.0, 3.0, 4.0), n_publics=50, noise_sigma=0.0, seed=0
    )


@pytest.fixture(scope="session")
def grouped_classes(grouped_dataset):
    return cluster_functions(grouped_dataset, 1e-6)


def same_lp(got, want) -> bool:
    """Same status and, for an optimal answer, the same x, basis and
    objective bits."""
    if got.status != want.status:
        return False
    if want.status != "optimal":
        return got.x is None
    return (
        got.x.tobytes() == want.x.tobytes()
        and got.basis.tobytes() == want.basis.tobytes()
        and got.objective == want.objective
    )
