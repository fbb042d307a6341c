"""Path generator tests: fBM statistics, smooth perturbations, dispatch."""

import cProfile
import decimal
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

import roughvar as rv
from roughvar import grid, pathgen
from roughvar.errors import NumericalError, ValidationError
from roughvar.pathgen import _FourStep, _fgn_circulant, _fgn_covariance, _fgn_eigenvalues


def _reference_fgn(H, grid_level, seed):
    """fGN increments by circulant embedding, with a fresh array for every step.

    The oracle for the generator's blocked four-step route: one monolithic
    real FFT each way and the same normal stream (one draw of 2N), so the
    two differ only by rounding.  It holds about 4.5 arrays of 2N doubles at
    its peak.
    """
    rng = np.random.default_rng(seed)
    N = 1 << grid_level
    gamma = _fgn_covariance(H, N)[:N + 1]  # the lags the 50-digit oracle test checks
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real.copy()
    assert lam.min() >= 0.0
    w = rng.standard_normal(2 * N)
    half = np.zeros(N + 1, dtype=np.complex128)
    half.real[0] = np.sqrt(lam[0]) * w[0]
    half.real[N] = np.sqrt(lam[N]) * w[N]
    scale = np.sqrt(lam[1:N] / 2.0)
    np.multiply(scale, w[1:N], out=half.real[1:N])
    np.multiply(scale, w[N + 1:], out=half.imag[1:N])
    return np.fft.irfft(half, n=2 * N)[:N] * np.sqrt(2 * N)


def _reference_fbm_samples(H, grid_level, seed):
    """fBM samples from :func:`_reference_fgn`."""
    increments = _reference_fgn(H, grid_level, seed) * 2.0 ** (-grid_level * H)
    return np.concatenate([[0.0], np.cumsum(increments)])


def _four_step(z, inverse=False):
    """The generator's blocked four-step FFT of ``z``, in place, as an N1 x N2 matrix.

    Forward leaves bin ``k1 + N1 k2`` at ``[k1, k2]``; inverse takes that
    layout to natural order, unnormalized.
    """
    fs = _FourStep(z.size)
    m = z.reshape(fs.n1, fs.n2)
    if not inverse:
        fs.columns(m)
    for rows, _, _ in fs.mirror_blocks():
        fs.rows(m, rows, inverse)
    if inverse:
        fs.columns(m, inverse=True)
    return m


def _vmhwm_mib(code):
    """Resident high-water mark of a fresh interpreter that imports roughvar, then runs ``code``."""
    src = str(pathlib.Path(rv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import roughvar as rv\nfrom roughvar import *\n{code}\n"
         "print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=env, check=True)
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


# Bounds against the reference, each about 3x the worst seen over
# the ensemble H in {0.05, 0.1, 0.3, 0.5, 0.75, 0.97, 0.999} x levels 0-16 x
# seeds 0-2, plus H = 0.4 at level 20, seed 1: max |difference| / max |reference|.
# Increments: worst 1.27e-14 (H = 0.999, level 16; it grows with level at
# that H, and is at most 9.7e-16 for H <= 0.75); 5.6e-16 at level 20.
# Samples, where the increments' differences add up: worst 8.1e-13
# (H = 0.05, level 15).
_INCREMENT_TOL = 3e-14
_SAMPLE_TOL = 3e-12


def _assert_near_reference(H, level, seed):
    x = _fgn_circulant(H, 1 << level, np.random.default_rng(seed))
    ref = _reference_fgn(H, level, seed)
    assert np.max(np.abs(x - ref)) <= _INCREMENT_TOL * np.max(np.abs(ref)), (level, seed)
    samples = rv.fbm_path(H, level, seed=seed).samples
    ref = _reference_fbm_samples(H, level, seed)
    assert np.max(np.abs(samples - ref)) <= _SAMPLE_TOL * np.max(np.abs(ref)), (level, seed)


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
        The circulant row holds lag k at entries k and 2N - k.  Bound 3e-15
        relative, from a worst of 8.7e-16 over these H and lags (the
        ``expm1`` form of every lag measured 5.2e-10).
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
                npt.assert_allclose(row[k], series, rtol=3e-15)
            npt.assert_array_equal(row[N + 1:], row[N - 1:0:-1])

    @pytest.mark.parametrize("H", [0.05, 0.1, 0.4, 0.6, 0.75, 0.97, 0.999])
    def test_covariance_against_a_50_digit_oracle(self, H):
        """Every branch of the covariance against its definition in 50-digit decimal.

        Lags 2-70 (the ``expm1`` form below 8, the series from 8 on),
        2**16 +- 1 and N.  The error is scaled by k**(2H-2), the size of the
        covariance away from H = 1/2.  Bounds, about 3x the worst over the H
        of this parametrization: 4e-15 at lags below 8 (worst 1.5e-15,
        H = 0.75, lag 6) and 6e-16 from 8 on (worst 2.1e-16; the ``expm1``
        form measured 1.2e-10 at lag 2**20).
        """
        def scaled_error(k):
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                t, kk = 2 * decimal.Decimal(H), decimal.Decimal(k)
                g = ((kk + 1) ** t + (kk - 1) ** t - 2 * kk ** t) / 2
                return float(abs(decimal.Decimal(row[k]) - g) / kk ** (t - 2))

        N = 1 << 20
        row = _fgn_covariance(H, N)
        lags = [*range(2, 71), (1 << 16) - 1, (1 << 16) + 1, N]
        errors = {k: scaled_error(k) for k in lags}
        assert max(e for k, e in errors.items() if k < 8) <= 4e-15
        assert max(e for k, e in errors.items() if k >= 8) <= 6e-16

    @pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5, 0.75, 0.97, 0.999])
    def test_within_bound_of_reference(self, H):
        for level in range(17):
            for seed in range(3):
                _assert_near_reference(H, level, seed)

    def test_within_bound_of_reference_at_level_20(self):
        _assert_near_reference(0.4, 20, 1)

    @pytest.mark.parametrize("level", [*range(17), 20])
    def test_four_step_fft_matches_numpy(self, level):
        """Forward and inverse blocked transforms against np.fft on random complex input.

        Bound 2e-15 of max |reference|, from a worst of 5.5e-16 over levels
        0-16 and 20, seeds 0-2.
        """
        N = 1 << level
        rng = np.random.default_rng(level)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        ref = np.fft.fft(z)
        got = _four_step(z.copy()).T.ravel()
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))
        fs = _FourStep(N)
        got = _four_step(z.reshape(fs.n2, fs.n1).T.copy(), inverse=True).ravel()
        ref = np.fft.ifft(z) * N
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.999])
    def test_eigenvalues_match_real_fft_of_the_row(self, H):
        """lam_0..lam_N unpacked from the packed transform against rfft(row).real.

        Bound 4e-15 of max lam, from a worst of 1.1e-15 over the seven H of
        the reference ensemble at levels 0-16 and 20.
        """
        for level in [*range(17), 20]:
            N = 1 << level
            fs = _FourStep(N)
            m, lam_n, least = _fgn_eigenvalues(H, N, fs)
            lam = np.append(m.imag.T.ravel(), lam_n)
            assert least == lam.min(), level
            ref = np.fft.rfft(_fgn_covariance(H, N)).real
            assert np.max(np.abs(lam - ref)) <= 4e-15 * np.max(ref), level

    def test_negative_eigenvalue_raises(self, monkeypatch):
        """A row that is no covariance raises instead of being clipped.

        Lag-one covariance 1 gives lam_k = 1 + 2 cos(pi k / N): -1 at k = N.
        """
        N = 1 << 6

        def bad_row(H, n):
            row = np.zeros(2 * n)
            row[[0, 1, -1]] = 1.0
            return row

        monkeypatch.setattr(pathgen, "_fgn_covariance", bad_row)
        with pytest.raises(NumericalError, match=r"negative eigenvalue \(-1\)"):
            _fgn_circulant(0.4, N, np.random.default_rng(0))
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            rv.fbm_path(0.4, 6, seed=0)

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_resident_peak_counts_fft_scratch(self):
        """The resident high-water mark above an import-only interpreter, at level 20.

        tracemalloc misses numpy's FFT scratch; VmHWM does not.  The path
        (8 MiB) and the 16 MiB buffer are 24 MiB; 32 MiB was measured, and a
        monolithic FFT of the 2N-double row measured 71 MiB.
        """
        base = _vmhwm_mib("")
        peak = _vmhwm_mib("rv.fbm_path(0.4, 20, seed=0)")
        assert peak - base <= 40.0

    @pytest.mark.parametrize("level", [*range(17), 20])
    def test_samples_are_the_allocate_and_cumsum_bits(self, level):
        """The in-place shift and blocked cumsum add in np.cumsum's order."""
        for H, seed in ((0.4, level), (0.05, 1), (0.9, 2)):
            increments = _fgn_circulant(H, 1 << level, np.random.default_rng(seed))
            increments *= 2.0 ** (-level * H)
            want = np.zeros((1 << level) + 1)
            np.cumsum(increments, out=want[1:])
            got = rv.fbm_path(H, level, seed=seed).samples
            assert got.tobytes() == want.tobytes(), (H, seed)

    def test_traced_samples_are_the_untraced_bits(self):
        """Under a tracer or a profiler the buffer cannot shrink in place.

        Both keep extra references to it, so ``ndarray.resize`` refuses; the
        samples are then copied out of the buffer, with the same bits.
        """
        want = rv.fbm_path(0.4, 10, seed=1).samples.tobytes()

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = rv.fbm_path(0.4, 10, seed=1)
        finally:
            sys.settrace(previous)
        assert traced.samples.tobytes() == want
        profiled = cProfile.Profile().runcall(rv.fbm_path, 0.4, 10, seed=1)
        assert profiled.samples.tobytes() == want

    def test_h_bounds_validated(self):
        for H in (0.0, 1.0, -0.2):
            with pytest.raises(ValidationError):
                rv.fbm_path(H, 8, seed=0)

    def test_level_guard(self):
        with pytest.raises(ValidationError, match="memory guard"):
            rv.fbm_path(0.5, 23, seed=0)
        with pytest.raises(ValidationError, match="memory guard"):
            rv.smooth_perturbation("sine", 1.0, 40)
        for level in (23, -1):
            with pytest.raises(ValidationError, match=r"^grid_level .*memory guard"):
                rv.takagi_path(0.5, level)


def _lipschitz_bound(kind, amplitude, params):
    """An explicit Lipschitz constant for :func:`roughvar.smooth_perturbation` output."""
    if kind == "sine":
        return abs(amplitude) * 2.0 * np.pi * abs(float(params.get("freq", 1.0)))
    coeffs = np.asarray(params.get("coeffs", [0.0, 1.0]), dtype=np.float64)
    return abs(amplitude) * float(np.sum(np.arange(coeffs.size) * np.abs(coeffs)))


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

    def test_empty_poly_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="1-D coefficient list"):
            rv.smooth_perturbation("poly", 1.0, 4, {"coeffs": []})

    @pytest.mark.parametrize("kind, amplitude, params", [
        ("sine", 0.5, {"freq": 1.0}), ("sine", -3.7, {"freq": 2.5}),
        ("poly", 0.3, {"coeffs": [0.0, 1.0, -0.5]}), ("poly", 2.0, {"coeffs": [-0.0]}),
        ("poly", 1.5, {"coeffs": [0.25, -1.0, 3.0, -0.0]}),
    ])
    def test_blocks_are_the_whole_grid_bits(self, kind, amplitude, params):
        # level 17 is two blocks and one sample; the values are those of the
        # whole time grid through np.sin or np.polynomial's polyval
        t = rv.grid_times(17)
        if kind == "sine":
            want = amplitude * np.sin(2.0 * np.pi * params["freq"] * t)
        else:
            want = amplitude * np.polynomial.polynomial.polyval(t, params["coeffs"])
        got = rv.smooth_perturbation(kind, amplitude, 17, params).samples
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind, amplitude, params, name", [
        ("sine", np.inf, {"freq": 1.0}, "amplitude"),
        ("sine", np.nan, {"freq": 1.0}, "amplitude"),
        ("sine", 1.0, {"freq": np.inf}, "freq"),
        ("sine", 1.0, {"freq": -np.inf}, "freq"),
        ("poly", 1.0, {"coeffs": [1.0, np.nan]}, "coeffs"),
    ])
    def test_nonfinite_parameters_rejected_before_evaluation(self, kind, amplitude,
                                                             params, name):
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match=f"perturbation {name} must be finite"):
                rv.smooth_perturbation(kind, amplitude, 8, params)

    def test_written_a_block_at_a_time(self):
        # no time grid and no path-sized temporary: the samples and blocks
        tracemalloc.start()
        try:
            rv.smooth_perturbation("poly", 0.5, 20, {"coeffs": [1.0, 2.0, 3.0]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * ((1 << 20) + 1), peak

    def test_lipschitz_bound_dominates_observed_slopes(self):
        for kind, params in [("sine", {"freq": 3.0}),
                             ("poly", {"coeffs": [0.0, 2.0, -1.0]})]:
            A = rv.smooth_perturbation(kind, 0.7, 10, params)
            bound = _lipschitz_bound(kind, 0.7, params)
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

    @pytest.mark.parametrize("signs", ["plus", "minus", "alternating", "random"])
    def test_takagi_path_is_the_coefficient_triangle_bits(self, signs):
        """Rows drawn lazily give the triangle's path, across 2**16-midpoint blocks."""
        for grid_level, max_level in ((18, 18), (18, 17), (18, 5), (9, 1), (3, 0)):
            got = rv.takagi_path(0.3, grid_level, signs=signs, seed=4, max_level=max_level)
            if max_level:
                c = rv.takagi_coefficients(0.3, max_level, signs=signs, seed=4)
                want = rv.schauder_eval(c, grid_level)
                assert got.label == want.label
            else:
                want = rv.Path(grid_level=grid_level,
                               samples=np.zeros((1 << grid_level) + 1))
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_takagi_with_no_coefficient_levels_is_the_zero_path(self):
        x = rv.takagi_path(0.5, 0)
        assert x.samples.tolist() == [0.0, 0.0]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_takagi_resident_peak_is_the_path_and_a_row(self):
        """The resident high-water mark above an import-only interpreter, at level 20.

        The path is 8 MiB, and each row is sliced a 2**16-entry block at a
        time, so no row is held whole: 9.7-9.8 MiB was measured, the rest
        being block temporaries.  The bound leaves 1.7 MiB; whole float rows,
        with numpy's random module loaded, measured 20.1 MiB, and the whole
        coefficient triangle with the recursion's full-row temporaries 30.0 MiB.
        """
        base = _vmhwm_mib("")
        peak = _vmhwm_mib("rv.takagi_path(0.5, 20)")
        assert peak - base <= 11.5

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_random_signs_cost_no_more_than_plus_signs(self):
        """At level 22, random signs peak within 2 MiB of plus signs.

        Random rows keep only their SHAKE-128 bytes (at most 256 KiB) and
        unpack them a 2**16-sign block at a time: 0.3 MiB above plus signs
        was measured (68.8 MiB), and 16.2 MiB (108.0 MiB) when each row was
        one ``rng.choice`` call.
        """
        plus = _vmhwm_mib("rv.takagi_path(0.5, 22)")
        random_signs = _vmhwm_mib("rv.takagi_path(0.5, 22, signs='random', seed=3)")
        assert random_signs - plus <= 2.0

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
        assert meta["generator_version"] == rv.pathgen.GENERATOR_VERSION == "4"


class TestSeeds:
    @pytest.mark.parametrize("make", [
        lambda seed: rv.fbm_path(0.5, 4, seed=seed),
        lambda seed: rv.takagi_path(0.5, 4, signs="random", seed=seed),
        lambda seed: rv.GeneratorSpec(kind="fbm", grid_level=4, H=0.5, seed=seed),
    ])
    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_seed_is_a_validation_error(self, make, seed):
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            make(seed)

    def test_missing_seed_draws_with_seed_zero(self):
        for make in (lambda seed: rv.fbm_path(0.5, 6, seed=seed),
                     lambda seed: rv.takagi_path(0.5, 6, signs="random", seed=seed)):
            a, b = make(None), make(0)
            assert a.samples.tobytes() == b.samples.tobytes()
            assert a.label == b.label and "seed=0" in a.label

    @pytest.mark.parametrize("kind, params, seed", [
        ("fbm", {}, 0), ("takagi", {"signs": "random"}, 0),
        ("takagi", {"signs": "plus"}, None), ("smooth", {}, None),
    ])
    def test_spec_records_the_seed_drawn_with(self, kind, params, seed):
        spec = rv.GeneratorSpec(kind=kind, grid_level=6, H=0.5, params=params)
        assert spec.seed == spec.metadata()["seed"] == seed


# SHA-256 of fbm_path(H, L, seed=L + 1).samples over L in 0..17 and 20, in
# that order, and of fbm_path(0.4, 22, seed=22).samples: the bits the sampler
# gave with every block on one thread.  numpy's PCG64 stream and FFT round
# these bits, so they are pinned for one numpy version.
_SAMPLE_DIGESTS = {
    0.05: "2a5b69c4645c9487bf482e3308ff144d3515ff7f64b9cdc409a507a30485b8ff",
    0.4: "d0d60a28c57df86d0718468e28c99ac6b13c82ecfaf1d662c6861f947a7f1ea1",
    0.75: "910fae7e89cb8c9ba71a6745e902f7915ec97fb289ef1301efc5ec5a69df3aca",
    0.999: "11ae0e3103b5b3b49ed69ef93c35e84f8ca476742f2d07214bd5a523481b5469",
}
_L22_DIGEST = "c0f242bc35aa548567df8de8d26028cb7d743d27eab90a0faf8fc7005d039d8a"
_DIGEST_NUMPY = "2.4.6"


class TestSecondThread:
    """Above 2**16 increments, with two CPUs, half of each block loop runs on a second thread."""

    @pytest.mark.skipif(np.__version__ != _DIGEST_NUMPY,
                        reason=f"sample digests are of numpy {_DIGEST_NUMPY}'s streams")
    @pytest.mark.parametrize("H", sorted(_SAMPLE_DIGESTS))
    def test_samples_are_the_recorded_bits(self, H, threads):
        digest = hashlib.sha256()
        for level in [*range(18), 20]:
            digest.update(rv.fbm_path(H, level, seed=level + 1).samples.tobytes())
        assert digest.hexdigest() == _SAMPLE_DIGESTS[H]
        assert threads and not any(t.is_alive() for t in threads)

    @pytest.mark.skipif(np.__version__ != _DIGEST_NUMPY,
                        reason=f"sample digests are of numpy {_DIGEST_NUMPY}'s streams")
    def test_level_22_samples_are_the_recorded_bits(self, threads):
        samples = rv.fbm_path(0.4, 22, seed=22).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == _L22_DIGEST

    @pytest.mark.parametrize("H, level", [(0.05, 17), (0.4, 18), (0.999, 17)])
    def test_one_cpu_gives_the_same_bytes(self, H, level, threads, monkeypatch):
        two = rv.fbm_path(H, level, seed=3).samples.tobytes()
        assert threads
        monkeypatch.setattr(grid, "_cpus", lambda: 1)
        del threads[:]
        assert rv.fbm_path(H, level, seed=3).samples.tobytes() == two
        assert threads == []

    def test_no_thread_outlives_fbm_path(self, threads, monkeypatch):
        before = threading.active_count()
        rv.fbm_path(0.4, 17, seed=1)
        # covariance, two column passes, two mirror-block passes and the two
        # loops over the normals
        assert len(threads) == 7
        assert not any(t.is_alive() for t in threads)
        assert threading.active_count() == before

        def bad_row(H, n):  # lam_k = 1 + 2 cos(pi k / N): -1 at k = N
            row = np.zeros(2 * n)
            row[[0, 1, -1]] = 1.0
            return row

        monkeypatch.setattr(pathgen, "_fgn_covariance", bad_row)
        del threads[:]
        with pytest.raises(NumericalError, match=r"negative eigenvalue \(-1\)"):
            rv.fbm_path(0.4, 17, seed=1)
        assert threads and not any(t.is_alive() for t in threads)
        assert threading.active_count() == before

    def test_negative_eigenvalue_raises_before_a_normal_is_drawn(self, threads, monkeypatch):
        drawn, normal_blocks = [], pathgen._normal_blocks

        def spy(rng, m):
            for item in normal_blocks(rng, m):
                drawn.append(item)
                yield item

        monkeypatch.setattr(pathgen, "_normal_blocks", spy)
        rv.fbm_path(0.4, 17, seed=1)
        assert drawn

        def bad_row(H, n):  # lam_k = 1 + 2 cos(pi k / N): -1 at k = N
            row = np.zeros(2 * n)
            row[[0, 1, -1]] = 1.0
            return row

        monkeypatch.setattr(pathgen, "_fgn_covariance", bad_row)
        del drawn[:]
        with pytest.raises(NumericalError, match=r"negative eigenvalue \(-1\)"):
            rv.fbm_path(0.4, 17, seed=1)
        assert drawn == []

    def test_untraced_samples_are_not_copied(self, threads):
        """The buffer shrinks in place to the samples: no closure of a worker still holds it.

        A second reference to the buffer makes ``ndarray.resize`` refuse, and
        the samples are then copied out (32 MiB at level 22).
        """
        x = rv.fbm_path(0.4, 17, seed=1)
        assert threads
        assert x.samples.base is not None and x.samples.base.dtype == np.complex128
        assert x.samples.base.nbytes == x.samples.nbytes + 8
