import numpy as np
import pytest

import finslercurv as fc


def seeded_spd(dim: int, seed: int) -> np.ndarray:
    """A well-conditioned random SPD matrix, exactly symmetric."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((dim, dim))
    a = r @ r.T + dim * np.eye(dim)
    return 0.5 * (a + a.T)


def seeded_randers(dim: int, seed: int, strength: float = 0.81):
    """Randers data with b^T a^-1 b scaled to ``strength``."""
    a = seeded_spd(dim, seed)
    rng = np.random.default_rng(seed + 1)
    b0 = rng.standard_normal(dim)
    s = b0 @ np.linalg.solve(a, b0)
    b = b0 * np.sqrt(strength / s)
    return a, b


def catalog(dim: int, seed: int = 2024) -> dict[str, fc.FundamentalFunction]:
    """One instance of every metric family at the given dimension."""
    a, b = seeded_randers(dim, seed)
    return {
        "euclidean": fc.euclidean(dim),
        "quadratic": fc.quadratic(seeded_spd(dim, seed + 7)),
        "randers": fc.randers(a, b),
        "pnorm": fc.pnorm(dim, 4),
        "mroot": fc.mroot(dim, 6),
    }


def interior_points(fund, count, seed):
    """Guard-respecting points with extra clearance for FD stencils."""
    points = []
    rng_index = 0
    while len(points) < count:
        rng = np.random.default_rng([seed, rng_index])
        rng_index += 1
        y = rng.standard_normal(fund.dim) * rng.uniform(0.5, 2.0)
        if not fund.guard_rows(y[None])[0]:
            continue
        if fund.guard_margin > 0.0 and \
                np.min(np.abs(y)) < 3.0 * fund.guard_margin * np.linalg.norm(y):
            continue
        points.append(y)
    return points


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)


try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # A fixed example sequence and no per-example deadline: runs are
    # reproducible and do not fail on a slow or drifting machine.
    settings.register_profile("finslercurv", derandomize=True, deadline=None)
    settings.load_profile("finslercurv")


def pytest_terminal_summary(terminalreporter):
    """Name the mode in which test_golden.py and test_demos.py replay the golden corpus."""
    import golden_corpus

    terminalreporter.write_line(f"golden corpus replay mode: {golden_corpus.replay_mode()}")
