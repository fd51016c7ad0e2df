"""The two statistical tests behind the verdicts, in numpy and the standard
library: the two-sample Kolmogorov-Smirnov test and the Anderson-Darling
normality test.

Both follow SciPy 1.17 (``stats.ks_2samp(method="asymp")`` and
``stats.anderson(dist="norm", method="interpolate")``) step by step, so a run
never imports SciPy.  Where SciPy's code is numpy, it is copied with its
arithmetic and dtypes (``longdouble`` scale factors included), and the tests
pin the results with ``==``.  Two parts are SciPy C code and are
re-derived: the one-sided Smirnov survival function (Birnbaum-Tingey sum in
log space) and the normal log-CDF (``math.erfc``); those agree with SciPy to
a relative 1e-10.

The KS p-value is the survival function of the exact two-sided one-sample
KS distribution at n = round(n1 n2 / (n1 + n2)), evaluated by Simard and
L'Ecuyer's dispatch (J. Stat. Softw. 39(11), 2011): Ruben-Gambino at the
ends, Durbin's matrix by Marsaglia-Tsang-Wang and Pomeranz's recursion for
small n x^2, Pelz-Good between, and 2 * smirnov in the upper tail.
"""

from __future__ import annotations

import math

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# Stirling coefficients B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1.
_STIRLING_COEFFS = [
    -2.955065359477124183e-2, 6.4102564102564102564e-3,
    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
    -5.952380952380952381e-4, 7.9365079365079365079e-4,
    -2.7777777777777777778e-3, 8.3333333333333333333e-2,
]

# Stephens' critical values of A^2 for the normal with estimated mean and
# variance, at significance levels 15, 10, 5, 2.5 and 1 percent.
_AVALS_NORM = np.array([0.561, 0.631, 0.752, 0.873, 1.035])
_SIG_NORM = np.array([15, 10, 5, 2.5, 1])


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def ks_2samp(a, b) -> tuple[float, float]:
    """Two-sided two-sample KS test: (statistic D, asymptotic p-value)."""
    data1 = np.sort(a)
    data2 = np.sort(b)
    n1 = data1.shape[0]
    n2 = data2.shape[0]
    if min(n1, n2) == 0:
        raise ValueError("ks_2samp needs two non-empty samples")
    data_all = np.concatenate([data1, data2])
    # searchsorted on the pooled values handles ties.
    cdf1 = np.searchsorted(data1, data_all, side="right") / n1
    cdf2 = np.searchsorted(data2, data_all, side="right") / n2
    cddiffs = cdf1 - cdf2
    min_s = np.clip(-np.min(cddiffs), 0, 1)
    max_s = np.max(cddiffs)
    d = min_s if min_s > max_s else max_s
    m, n = sorted([float(n1), float(n2)], reverse=True)
    en = m * n / (m + n)
    return float(d), kstwo_sf(d, np.round(en))


def kstwo_sf(x, n) -> float:
    """P(D_n >= x) for the two-sided one-sample KS statistic D_n.

    n must be a positive integer (an int or an integral float).
    """
    if not (n >= 1 and n == round(n)):
        raise ValueError(f"n must be a positive integer, got {n}")
    x = np.float64(x)
    if x <= 0.5 / n:  # below the support: D_n >= 1/(2n) always
        return 1.0
    if x >= 1.0:
        return 0.0
    return float(_kolmogn_sf(int(n), x))


def _kolmogn_sf(n: int, x):
    """SciPy's ``_kolmogn(n, x, cdf=False)`` for 1/(2n) < x < 1."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:
        return _clip(2 * _smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _kolmogn_dmtw(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _kolmogn_pomeranz(n, x))
        return _clip(2 * _smirnov(n, x))
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * _smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return _clip(1.0 - cdfprob)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series, with n*log(n) removed up front to
    # avoid subtractive cancellation.
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _smirnov(n: int, d) -> float:
    """One-sided P(D_n^+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum

        d * sum_{j < n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),

    whose terms are all positive; summed in log space.  Terms with
    1 - d - j/n <= 0 are zero and are left out, so no log(0) is taken.
    """
    d = float(d)
    j = np.arange(n)
    jn = j / n
    base = 1.0 - d - jn
    m = int(np.count_nonzero(base > 0))  # base falls with j
    j, jn, base = j[:m], jn[:m], base[:m]
    # log C(n, j) as a running sum of log((n - i + 1) / i), i = 1..j,
    # accumulated in long double: a float64 running sum loses up to 6e-10
    # relative at n = 2e5 (1e-11 in long double on x86-64).
    i = j[1:]
    log_binom = np.empty(m)
    log_binom[0] = 0.0
    log_binom[1:] = np.cumsum(np.log((n - i + 1) / i), dtype=np.longdouble)
    log_terms = log_binom + (n - j) * np.log(base) + (j - 1) * np.log(d + jn)
    top = log_terms.max()
    return math.exp(math.log(d) + top + math.log(np.exp(log_terms - top).sum()))


def _kolmogn_dmtw(n: int, d):
    """Pr(D_n <= d) by Durbin's matrix, computed as by Marsaglia, Tsang and
    Wang (2003); clipped to [0, 1].  Needs 1/n < d < 1/2."""
    # Write d = (k-h)/n, where k is positive integer and 0 <= h < 1.
    # Compute the k-th row of (n!/n^n) * H^n for the m*m matrix H, m = 2k-1,
    # scaling intermediate results.
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and last row) of H, w[j] = 1/j!.
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n!/n^n.
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the nonzero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n: int, x):
    """Pr(D_n <= x) by Pomeranz's recursion (1974); clipped to [0, 1]."""
    # Each row of the n*(2n+2) matrix V is the convolution of the previous
    # row with Poisson-like weights; n! V[n-1, 2n+1] is the CDF.  Two rows
    # are kept, each with the start index of its few nonzero entries, and
    # rescaled against underflow.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # most powers any convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first index to use from conv
            conv_len = j2 - j1 + 1  # number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # Multiply by n!.
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _kolmogn_pelz_good(n: int, x):
    """Pelz-Good (1976) approximation to Pr(D_n <= x), 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x sqrt(n), with each K transformed by Jacobi theta
    identities into a series that converges fast for small z.  Not clipped.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return _clip(0.0)

    q = np.exp(qlog)

    # Coefficients of the terms in the sums for K1, K2 and K3.
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd i.
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([
            1.0,
            k1a + k1b * msquared,
            k2a + k2b * msquared + k2c * mfour,
            k3a + k3b * msquared + k3c * mfour + k3d * msix,
        ])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The sums over all integers k: (pi^2 k^2) q^(k^2) for K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) for K3, summed directly.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _log_ndtr_far(a: float) -> float:
    """log Phi(a) for a < -20 by its asymptotic series, as in Cephes'
    log_ndtr; there erfc(-a / sqrt 2) heads for underflow."""
    log_lhs = -0.5 * a * a - math.log(-a) - 0.5 * math.log(2 * math.pi)
    last_total, rhs, numerator, denom_factor = 0.0, 1.0, 1.0, 1.0
    denom_cons = 1.0 / (a * a)
    sign, i = 1, 0
    while abs(last_total - rhs) > np.finfo(float).eps:
        i += 1
        last_total = rhs
        sign = -sign
        denom_factor *= denom_cons
        numerator *= 2 * i - 1
        rhs += sign * numerator * denom_factor
    return log_lhs + math.log(rhs)


def _log_ndtr_pair(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log Phi(w), log Phi(-w)) elementwise, Phi the standard normal CDF.

    One erfc per element: e = erfc(|w| / sqrt 2) gives the smaller tail
    Phi(-|w|) = e / 2 and the larger one, log1p(-e / 2), both to full
    relative precision.
    """
    a = np.abs(w)
    far = a > 20.0
    e = np.fromiter(map(math.erfc, (a * math.sqrt(0.5)).tolist()), float, a.size)
    log_small = np.log(np.where(far, 1.0, e) / 2)
    log_small[far] = [_log_ndtr_far(-v) for v in a[far].tolist()]
    log_large = np.log1p(-e / 2)
    neg = w < 0
    return np.where(neg, log_small, log_large), np.where(neg, log_large, log_small)


def anderson_normal(x) -> tuple[float, float]:
    """Anderson-Darling test of normality with estimated mean and variance:
    (statistic A^2, interpolated p-value).

    The p-value interpolates linearly in Stephens' critical-value table,
    adjusted for the sample size, so it is clamped to [0.01, 0.15]: a
    statistic beyond the 1% critical value reads exactly 0.01.
    """
    y = np.sort(x)
    xbar = np.mean(x, axis=0)
    N = len(y)
    s = np.std(x, ddof=1, axis=0)
    w = (y - xbar) / s
    logcdf, logsf = _log_ndtr_pair(w)
    critical = np.around(_AVALS_NORM / (1.0 + 0.75 / N + 2.25 / N / N), 3)
    i = np.arange(1, N + 1)
    A2 = -N - np.sum((2 * i - 1.0) / N * (logcdf + logsf[::-1]), axis=0)
    pvalue = np.interp(A2, critical, _SIG_NORM / 100)
    return float(A2), float(pvalue)
