"""gaplab.stattests against SciPy 1.17, the code it ports.

Where the port copies SciPy's numpy code (the KS statistic and every branch
of the KS distribution but one) the results must be equal.  The two parts
that SciPy computes in C are re-derived and must agree to a relative 1e-10:
the one-sided Smirnov tail, and the normal log-CDF inside the
Anderson-Darling statistic.
"""

import numpy as np
import pytest
from scipy import special, stats

from gaplab.stattests import anderson_normal, ks_2samp, kstwo_sf

RTOL = 1e-10
# Below this, results are subnormal and neither side keeps relative precision.
ATOL = 1e-300


def _branch(n, x):
    """Which rule of Simard and L'Ecuyer's dispatch SciPy applies to
    P(D_n >= x); the thresholds are those of SciPy's ``_kolmogn``."""
    if x <= 0.5 / n:
        return "below-support"
    if x >= 1.0:
        return "above-support"
    t = n * x
    if t <= 1.0:
        return "ruben-gambino-low" + ("-small-n" if n <= 140 else "")
    if t >= n - 1:
        return "ruben-gambino-high"
    if x >= 0.5:
        return "smirnov-x-above-half"
    if n <= 140:
        if t * x <= 0.754693:
            return "durbin-small-n"
        if t * x <= 4:
            return "pomeranz"
        return "smirnov-small-n"
    if t * x >= 370.0:
        return "zero"
    if t * x >= 2.2:
        return "smirnov"
    if n <= 100000 and n * x**1.5 <= 1.4:
        return "durbin"
    return "pelz-good"


def _grid():
    points = []
    for n in (1, 2, 3, 5, 10, 37, 100, 140, 141, 500, 5000, 200_000):
        xs = np.concatenate([
            np.linspace(0.0, 1.0, 81),
            np.geomspace(1e-5, 1.0, 41),
            [0.5 / n, 1.0 / n, 1.0 - 1.0 / n],
        ])
        points += [(n, float(x)) for x in xs]
    # n (1 - x) an integer: the last Birnbaum-Tingey term has base 1 - x - j/n
    # exactly 0 and must be left out, not taken as log(0).
    points += [(10, 0.5), (100, 0.3), (5000, 0.03), (5000, 0.3)]
    return points


GRID = _grid()
SMIRNOV = ("smirnov", "smirnov-small-n", "smirnov-x-above-half")


def test_grid_reaches_every_branch():
    assert {_branch(n, x) for n, x in GRID} == {
        "below-support", "above-support", "ruben-gambino-low",
        "ruben-gambino-low-small-n", "ruben-gambino-high", "durbin-small-n",
        "pomeranz", "durbin", "pelz-good", "zero", *SMIRNOV,
    }


@pytest.mark.parametrize("n", sorted({n for n, _ in GRID}))
def test_kstwo_sf_matches_scipy(n):
    for _, x in filter(lambda p: p[0] == n, GRID):
        ours = kstwo_sf(x, n)
        ref = float(stats.kstwo.sf(x, n))
        if _branch(n, x) in SMIRNOV:
            assert ours == pytest.approx(ref, rel=RTOL, abs=ATOL), (n, x)
        else:
            assert ours == ref, (n, x, _branch(n, x))


def test_kstwo_sf_over_the_operating_range():
    # Every reference KS test compares 10,000 samples with 10,000: n = 5000.
    # Below D = 0.021 the p-value is Pelz-Good, above it 2 * smirnov.
    for d in np.linspace(0.001, 0.3, 300):
        ref = float(stats.kstwo.sf(d, 5000))
        assert kstwo_sf(d, 5000) == pytest.approx(ref, rel=RTOL, abs=ATOL), d


def test_kstwo_sf_rejects_fractional_n():
    with pytest.raises(ValueError, match="integer"):
        kstwo_sf(0.1, 10.5)
    with pytest.raises(ValueError, match="integer"):
        kstwo_sf(0.1, 0)


def _sample_pairs():
    rng = np.random.default_rng(41)
    for n1, n2 in ((10_000, 10_000), (10_000, 9_999), (37, 91), (500, 123)):
        for shift in (0.0, 0.05, 0.3):
            a = rng.standard_normal(n1)
            b = rng.standard_normal(n2) + shift
            yield a, b
            yield np.round(a, 1), np.round(b, 1)  # ties within and across
    x = rng.standard_normal(300)
    yield x, x.copy()  # D = 0
    yield x, x + 10.0  # D = 1


def test_ks_2samp_matches_scipy():
    for a, b in _sample_pairs():
        d, p = ks_2samp(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert d == ref.statistic
        assert p == pytest.approx(ref.pvalue, rel=RTOL, abs=ATOL)


def test_ks_2samp_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        ks_2samp(np.ones(3), np.ones(0))


def test_anderson_normal_matches_scipy():
    rng = np.random.default_rng(43)
    samples = [
        rng.standard_normal(1000),
        rng.standard_normal(12),
        rng.standard_t(5, 400),
        rng.uniform(size=200),
        rng.exponential(size=500),
        np.concatenate([rng.standard_normal(500), [40.0]]),  # far tail
    ]
    # Tiny samples, where the size adjustment moves the rounded critical
    # values and heavy tails put A^2 inside the interpolated range.
    samples += [rng.standard_t(2, n) for n in (5, 6, 7, 8) for _ in range(10)]
    pvalues = []
    for x in samples:
        a2, p = anderson_normal(x)
        ref = stats.anderson(x, dist="norm", method="interpolate")
        assert a2 == pytest.approx(ref.statistic, rel=RTOL)
        assert p == pytest.approx(ref.pvalue, rel=RTOL)
        pvalues.append(p)
    # Beyond the 1% critical value the interpolation clamps p to exactly
    # 0.01, which the normality check fails.
    assert pvalues[4] == 0.01


def test_log_normal_cdf_matches_scipy():
    from gaplab.stattests import _log_ndtr_pair

    xs = np.concatenate([np.linspace(-60.0, 60.0, 4801), [-1e5, 1e5, 0.0]])
    logcdf, logsf = _log_ndtr_pair(xs)
    np.testing.assert_allclose(logcdf, special.log_ndtr(xs), rtol=1e-13, atol=ATOL)
    np.testing.assert_allclose(logsf, special.log_ndtr(-xs), rtol=1e-13, atol=ATOL)
