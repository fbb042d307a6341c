"""Path generator tests: fBM statistics, smooth perturbations, dispatch."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

import roughvar as rv
from roughvar.errors import ValidationError
from roughvar.pathgen import _fgn_covariance


def _reference_fgn_covariance(H, N):
    """fGN autocovariance at lags 0..N, in one vectorized expression."""
    two_h = 2.0 * H
    gamma = np.empty(N + 1)
    gamma[0] = 1.0
    if N >= 1:
        gamma[1] = np.expm1((two_h - 1.0) * np.log(2.0))
    if N >= 2:
        k = np.arange(2, N + 1, dtype=np.float64)
        inv = 1.0 / k
        gamma[2:] = 0.5 * k ** two_h * (np.expm1(two_h * np.log1p(inv))
                                        + np.expm1(two_h * np.log1p(-inv)))
    return gamma


def _reference_fbm_samples(H, grid_level, seed):
    """fBM samples by circulant embedding with a fresh array for every step.

    The oracle for the buffer-reusing generator: the same FFT calls, the same
    per-element arithmetic and the same normal stream (one draw of 2N), so
    the samples must agree bitwise.  It holds about 4.5 arrays of 2N doubles
    at its peak.
    """
    rng = np.random.default_rng(seed)
    N = 1 << grid_level
    gamma = _reference_fgn_covariance(H, N)
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real.copy()
    assert lam.min() >= 0.0
    w = rng.standard_normal(2 * N)
    half = np.zeros(N + 1, dtype=np.complex128)
    half.real[0] = np.sqrt(lam[0]) * w[0]
    half.real[N] = np.sqrt(lam[N]) * w[N]
    scale = np.sqrt(lam[1:N] / 2.0)
    np.multiply(scale, w[1:N], out=half.real[1:N])
    np.multiply(scale, w[N + 1:], out=half.imag[1:N])
    fgn = np.fft.irfft(half, n=2 * N)[:N] * np.sqrt(2 * N)
    increments = fgn * 2.0 ** (-grid_level * H)
    return np.concatenate([[0.0], np.cumsum(increments)])


class TestFbmPath:
    def test_seed_determinism(self):
        a = rv.fbm_path(0.4, 10, seed=5)
        b = rv.fbm_path(0.4, 10, seed=5)
        npt.assert_array_equal(a.samples, b.samples)

    def test_distinct_seeds_differ(self):
        a = rv.fbm_path(0.4, 10, seed=5)
        b = rv.fbm_path(0.4, 10, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_starts_at_zero_with_full_grid(self):
        x = rv.fbm_path(0.7, 9, seed=0)
        assert x.samples[0] == 0.0
        assert x.samples.size == 513

    def test_increment_variance_matches_self_similarity(self):
        """Var of grid increments is 2**(-2*L*H), up to sampling error."""
        L, H = 14, 0.5
        x = rv.fbm_path(H, L, seed=0)
        dx = np.diff(x.samples)
        ratio = np.var(dx) / 2.0 ** (-2 * L * H)
        # 2**14 iid squares: std of the mean ratio ~ sqrt(2/2**14) ~ 0.011
        assert abs(ratio - 1.0) < 0.07

    def test_increments_look_gaussian(self):
        """Excess kurtosis of pooled increments within +-0.5 of zero."""
        x = rv.fbm_path(0.3, 14, seed=2)
        k = stats.kurtosis(np.diff(x.samples))
        assert abs(k) < 0.5

    def test_h07_variation_decay_slope(self):
        """log2 quadratic variation falls with slope 1-2H = -0.4 across levels."""
        L = 16
        x = rv.fbm_path(0.7, L, seed=0)
        levels = np.arange(8, 15)
        qv = [float(np.sum(np.diff(x.samples[:: 1 << (L - n)]) ** 2)) for n in levels]
        slope = np.polyfit(levels, np.log2(qv), 1)[0]
        assert abs(slope - (-0.4)) < 0.05

    @pytest.mark.parametrize("H", [0.97, 0.99])
    def test_near_one_hurst_generates_at_level_20(self, H):
        """Second-order increments have the self-similar variance.

        The plain increment-variance check above is no test at H near 1:
        the increments are long-range dependent, so the sample variance of
        one path is a chi-square-like draw with O(1) spread (seed 0 gives
        ratios 0.53 and 0.22 here).  Second differences have summable
        correlations; their variance is ``2 * (1 - gamma_1) * 2**(-2*L*H)``
        with the lag-one covariance ``gamma_1 = 2**(2H-1) - 1``.
        """
        L = 20
        x = rv.fbm_path(H, L, seed=0)
        assert x.samples.size == (1 << L) + 1
        d2 = np.diff(x.samples, 2)
        gamma_1 = 2.0 ** (2 * H - 1) - 1.0
        ratio = np.mean(d2 * d2) / (2.0 * (1.0 - gamma_1) * 2.0 ** (-2 * L * H))
        assert abs(ratio - 1.0) < 0.07

    def test_covariance_accurate_at_large_lags(self):
        """fGN autocovariance against its binomial series, free of cancellation.

        ``0.5 * ((k+1)**2H + (k-1)**2H - 2 k**2H) = k**2H * sum_j C(2H, 2j) k**-2j``
        for k > 1; four terms are exact to double precision at k >= 100.
        The circulant row holds lag k at entries k and 2N - k.
        """
        def binom(a, m):
            return math.prod(a - i for i in range(m)) / math.factorial(m)

        N = 1 << 20
        for H in (0.1, 0.4, 0.97, 0.99):
            row = _fgn_covariance(H, N)
            assert row.shape == (2 * N,)
            assert row[0] == 1.0
            npt.assert_allclose(row[1], 2.0 ** (2 * H - 1) - 1.0, rtol=1e-15)
            for k in (100, 1000, 12345, (1 << 16) + 1, (1 << 16) + 2, N):
                series = k ** (2 * H) * math.fsum(binom(2 * H, 2 * j) * float(k) ** (-2 * j)
                                                  for j in range(1, 5))
                npt.assert_allclose(row[k], series, rtol=1e-9)
            npt.assert_array_equal(row[N + 1:], row[N - 1:0:-1])

    @pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5, 0.75, 0.97, 0.999])
    def test_bitwise_equal_to_reference(self, H):
        for level in range(17):
            for seed in range(3):
                assert np.array_equal(rv.fbm_path(H, level, seed=seed).samples,
                                      _reference_fbm_samples(H, level, seed)), (level, seed)

    def test_bitwise_equal_to_reference_at_level_20(self):
        assert np.array_equal(rv.fbm_path(0.4, 20, seed=1).samples,
                              _reference_fbm_samples(0.4, 20, 1))

    def test_peak_memory_is_two_embedding_buffers(self):
        """At most two arrays of 2N doubles live at once (2.05 allows bookkeeping).

        tracemalloc sees numpy's array buffers but not the FFT's internal
        scratch, which numpy allocates outside its traced allocator; the
        bound is on the arrays this module holds.
        """
        level = 18
        rv.fbm_path(0.4, 4, seed=0)  # warm up imports and FFT plan caches
        tracemalloc.start()
        try:
            rv.fbm_path(0.4, level, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * (2 * (1 << level) * 8)

    def test_h_bounds_validated(self):
        for H in (0.0, 1.0, -0.2):
            with pytest.raises(ValidationError):
                rv.fbm_path(H, 8, seed=0)

    def test_level_guard(self):
        with pytest.raises(ValidationError, match="memory guard"):
            rv.fbm_path(0.5, 23, seed=0)
        with pytest.raises(ValidationError, match="memory guard"):
            rv.smooth_perturbation("sine", 1.0, 40)


class TestSmoothPerturbation:
    def test_sine_values(self):
        A = rv.smooth_perturbation("sine", 0.5, 6, {"freq": 1.0})
        npt.assert_allclose(A.samples, 0.5 * np.sin(2 * np.pi * rv.grid_times(6)),
                            atol=1e-15)

    def test_poly_values(self):
        A = rv.smooth_perturbation("poly", 2.0, 4, {"coeffs": [1.0, 0.0, 1.0]})
        t = rv.grid_times(4)
        npt.assert_allclose(A.samples, 2.0 * (1.0 + t ** 2), rtol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="sine or poly"):
            rv.smooth_perturbation("spline", 1.0, 4)

    def test_lipschitz_bound_dominates_observed_slopes(self):
        for kind, params in [("sine", {"freq": 3.0}),
                             ("poly", {"coeffs": [0.0, 2.0, -1.0]})]:
            A = rv.smooth_perturbation(kind, 0.7, 10, params)
            bound = rv.smooth_lipschitz_bound(kind, 0.7, params)
            slopes = np.abs(np.diff(A.samples)) * 2.0 ** 10
            assert np.max(slopes) <= bound + 1e-9

    def test_vanishing_quadratic_variation(self):
        """Smooth paths lose quadratic variation at rate 2**-n.

        For amplitude-1 ``sin(2*pi*t)`` the level-n value has the exact
        closed form ``2**(n+1) * sin(pi * 2**-n)**2``: each increment is
        ``2 cos(2 pi (i + 1/2) 2**-n) sin(pi 2**-n)`` and the squared-cosine
        sum over a full period is exactly half the term count.  This is
        ``2 * pi**2 * 2**-n`` up to an O(2**-2n) correction.
        """
        A = rv.smooth_perturbation("sine", 1.0, 12)
        qv = [rv.pth_variation(A, rv.dyadic_partition(n, 12), 2.0).terminal
              for n in range(4, 11)]
        assert all(a > b for a, b in zip(qv, qv[1:]))
        for n, value in zip(range(4, 11), qv):
            exact = 2.0 ** (n + 1) * np.sin(np.pi * 2.0 ** -n) ** 2
            npt.assert_allclose(value, exact, rtol=1e-9)


class TestConvenienceWrappers:
    def test_takagi_path_defaults_to_grid_level_truncation(self):
        x = rv.takagi_path(0.5, 8)
        y = rv.takagi_path(0.5, 8, max_level=8)
        npt.assert_array_equal(x.samples, y.samples)

    def test_takagi_truncation_changes_fine_structure(self):
        full = rv.takagi_path(0.5, 10)
        shallow = rv.takagi_path(0.5, 10, max_level=3)
        assert not np.array_equal(full.samples, shallow.samples)

    def test_counterexample_default_level_is_last_burst_top(self):
        x = rv.counterexample_path(4)
        assert x.grid_level == 10  # S_4 = 10

    def test_counterexample_level_override(self):
        x = rv.counterexample_path(3, grid_level=9)
        assert x.grid_level == 9


class TestGeneratorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown generator kind"):
            rv.GeneratorSpec(kind="sde", grid_level=8)

    def test_fbm_requires_h(self):
        with pytest.raises(ValidationError, match="requires H"):
            rv.GeneratorSpec(kind="fbm", grid_level=8)

    def test_generate_matches_direct_calls(self):
        spec = rv.GeneratorSpec(kind="fbm", grid_level=9, H=0.6, seed=4)
        npt.assert_array_equal(rv.generate(spec).samples,
                               rv.fbm_path(0.6, 9, seed=4).samples)
        spec = rv.GeneratorSpec(kind="takagi", grid_level=9, H=0.4,
                                params={"signs": "alternating"})
        npt.assert_array_equal(rv.generate(spec).samples,
                               rv.takagi_path(0.4, 9, signs="alternating").samples)

    def test_generate_counterexample(self):
        spec = rv.GeneratorSpec(kind="counterexample", grid_level=None,
                                params={"n_max": 3})
        assert rv.generate(spec).grid_level == 6

    def test_generate_custom_schauder(self, tmp_path):
        c = rv.takagi_coefficients(0.5, 4)
        name = tmp_path / "c.json"
        rv.write_coefficients_json(c, name)
        spec = rv.GeneratorSpec(kind="custom_schauder", grid_level=6,
                                params={"coeffs_file": str(name)})
        npt.assert_array_equal(rv.generate(spec).samples,
                               rv.schauder_eval(c, 6).samples)

    def test_metadata_is_json_ready(self):
        spec = rv.GeneratorSpec(kind="takagi", grid_level=8, H=0.5,
                                params={"signs": "plus"})
        meta = spec.metadata()
        assert meta["kind"] == "takagi"
        assert meta["generator_version"] == rv.pathgen.GENERATOR_VERSION
