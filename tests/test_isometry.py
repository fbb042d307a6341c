"""Smooth-map catalog, Stieltjes sums, and two-sided comparison tests."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import roughvar as rv
from roughvar import grid
from roughvar.errors import EvaluationError, ValidationError
from roughvar.isometry import _image
from roughvar.variation import _level_terminals, _tail_slope

LEVELS = range(6, 13)


@pytest.fixture(scope="module")
def takagi14():
    return rv.takagi_path(0.5, 14)


@pytest.fixture(scope="module")
def fbm14():
    return rv.fbm_path(0.4, 14, seed=0)


# ---------------------------------------------------------------------------
# Map catalog
# ---------------------------------------------------------------------------


def _bounds(f, lo, hi, n=256):
    """Sup of |f|, |f'| sampled on [lo, hi]."""
    u = np.linspace(lo, hi, n)
    return {"sup_f": float(np.max(np.abs(f.f(u)))),
            "sup_f1": float(np.max(np.abs(f.f1(u))))}


class TestSmoothMapCatalog:
    @pytest.mark.parametrize("factory,lo,hi,K", [
        (rv.identity_map, -2.0, 2.0, 1.0),
        (lambda: rv.affine_map(3.0, -1.0), -2.0, 2.0, 1.0),
        (rv.square_plus_one_map, -2.0, 2.0, 2.0),
        (rv.sin_map, -2.0, 2.0, 1.0),
        (rv.exp_clamped_map, -2.0, 3.0, 16.0),
    ])
    def test_derivative_consistent_with_finite_differences(self, factory, lo, hi, K):
        # |f1 - central difference of f| <= K * h**2 on 101 points
        f, h = factory(), 1e-5
        u = np.linspace(lo, hi, 101)
        approx = (f.f(u + h) - f.f(u - h)) / (2.0 * h)
        assert np.max(np.abs(f.f1(u) - approx)) <= K * h ** 2

    def test_exp_clamp_freezes_value_and_derivative(self):
        f = rv.exp_clamped_map(cap=5.0)
        npt.assert_allclose(f.f(np.array([7.0, 9.0])), np.exp(5.0))
        npt.assert_array_equal(f.f1(np.array([7.0, 9.0])), [0.0, 0.0])

    def test_bounds_report_suprema(self):
        b = _bounds(rv.sin_map(), 0.0, np.pi)
        assert 0.999 <= b["sup_f"] <= 1.0
        assert 0.999 <= b["sup_f1"] <= 1.0

    def test_tabulated_map_recovers_a_known_function(self):
        grid = np.linspace(-2.0, 2.0, 401)
        f = rv.tabulated_map("sin_table", grid, np.sin(grid))
        u = np.linspace(-1.5, 1.5, 31)
        npt.assert_allclose(f.f(u), np.sin(u), atol=1e-8)
        npt.assert_allclose(f.f1(u), np.cos(u), atol=1e-6)

    def test_tabulated_map_needs_enough_samples(self):
        with pytest.raises(ValidationError, match=">= 4"):
            rv.tabulated_map("short", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])

    def test_builtin_lookup_and_affine_parsing(self):
        assert rv.builtin_map("sin").id == "sin"
        f = rv.builtin_map("affine:2,1")
        npt.assert_array_equal(f.f(np.array([3.0])), [7.0])
        with pytest.raises(ValidationError, match="affine:a,b"):
            rv.builtin_map("affine:2;1")
        with pytest.raises(ValidationError, match="unknown map"):
            rv.builtin_map("tan")


class TestTabulatedMapSpline:
    """The numpy not-a-knot spline behind ``tabulated_map``."""

    def test_reproduces_cubics_inside_and_beyond_the_table(self):
        # A not-a-knot spline through samples of a cubic is that cubic.
        # Grids: n in [4, 400] on [-1, 1], adjacent gaps within a factor 3.
        # Derivative k is judged against eps * max|p| / min_gap**k, the size
        # of one rounding in the samples seen through k divided differences;
        # the worst ratio over 600 such grids (300 each from seeds 0 and 1) was 128.
        rng = np.random.default_rng(0)
        eps = np.finfo(np.float64).eps
        for _ in range(200):
            n = int(rng.integers(4, 401))
            x = np.cumsum(rng.uniform(0.5, 1.5, n))
            x = 2.0 * (x - x[0]) / (x[-1] - x[0]) - 1.0
            p = np.polynomial.Polynomial(rng.standard_normal(4))
            f = rv.tabulated_map("cubic", x, p(x))
            dx = np.diff(x)
            # inside, at the knots, and two end pieces' widths beyond each end
            u = np.concatenate([np.linspace(x[0] - 2.0 * dx[0],
                                            x[-1] + 2.0 * dx[-1], 2001), x])
            scale = eps * float(np.max(np.abs(p(u))))
            for k, fk in enumerate((f.f, f.f1)):
                err = float(np.max(np.abs(fk(u) - p.deriv(k)(u))))
                assert err <= 1e3 * scale / dx.min() ** k, (n, k, err)

    def test_extrapolates_with_the_end_pieces(self):
        x = np.linspace(0.0, 1.0, 9)
        f = rv.tabulated_map("sq", x, x ** 3 - x)
        u = np.array([-3.0, 4.0])
        npt.assert_allclose(f.f(u), u ** 3 - u, rtol=1e-12)
        npt.assert_allclose(f.f1(u), 3.0 * u ** 2 - 1.0, rtol=1e-12)

    def test_matches_scipy_on_random_grids(self):
        interp = pytest.importorskip("scipy.interpolate")
        # 200 grids, n in [4, 400], sorted uniform knots on [-3, 3] (gaps
        # down to ~1e-5 of the span), standard-normal values, evaluated on
        # the knots and 2000 points spanning 20% past each end.  Worst
        # measured max|f_k - ref_k| / max|ref_k| over k = 0, 1: 3.5e-13.
        rng = np.random.default_rng(12345)
        for _ in range(200):
            n = int(rng.integers(4, 401))
            x = np.sort(rng.uniform(-3.0, 3.0, n))
            if not (np.diff(x) > 0.0).all():
                continue
            y = rng.standard_normal(n)
            span = x[-1] - x[0]
            u = np.concatenate([rng.uniform(x[0] - 0.2 * span, x[-1] + 0.2 * span,
                                            2000), x])
            ref = interp.CubicSpline(x, y)
            f = rv.tabulated_map("random", x, y)
            for k, fk in enumerate((f.f, f.f1)):
                want = ref(u, k)
                err = np.max(np.abs(fk(u) - want)) / np.max(np.abs(want))
                assert err <= 2e-10, (n, k, err)

    @pytest.mark.parametrize("n,tol", [(4, 1e-14), (5, 1e-14), (50, 1e-12),
                                       (400, 2e-10), ("tanh", 1e-14)])
    def test_matches_scipy_on_uniform_grids(self, n, tol):
        # tanh: the 161-point table on [-4, 4] of the short-jobs benchmark.
        # Measured worst relative errors: 4e-16 (n=4), 1e-15 (n=5),
        # 2.6e-13 (n=50), 1.6e-11 (n=400), 2.2e-16 (tanh).
        interp = pytest.importorskip("scipy.interpolate")
        if n == "tanh":
            x = np.linspace(-4.0, 4.0, 161)
            y, u = np.tanh(x), np.linspace(-5.0, 5.0, 4001)
        else:
            x = np.linspace(0.0, 1.0, n)
            y, u = np.sin(7.0 * x), np.linspace(-0.3, 1.3, 999)
        ref = interp.CubicSpline(x, y)
        f = rv.tabulated_map("uniform", x, y)
        for k, fk in enumerate((f.f, f.f1)):
            want = ref(u, k)
            assert np.max(np.abs(fk(u) - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("grid,values,match", [
        ([0.0, 1.0, 0.5, 2.0, 3.0], [0.0, 1.0, 0.2, 4.0, 9.0], "strictly increasing"),
        ([0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 4.0, 9.0], "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, np.nan, 9.0, 16.0], "non-finite"),
        ([0.0, 1.0, 2.0, np.inf, 4.0], [0.0, 1.0, 4.0, 9.0, 16.0], "non-finite"),
        ([-1e308, -1.0, 1.0, 1e308], [0.0, 1.0, 1.0, 0.0], "overflows"),
    ])
    def test_malformed_tables_are_rejected(self, grid, values, match):
        with pytest.raises(ValidationError, match=match):
            rv.tabulated_map("bad", grid, values)

    @pytest.mark.parametrize("check", [rv.isometry_check, rv.chain_rule_check])
    def test_warns_when_the_path_leaves_the_table(self, check):
        x = rv.takagi_path(0.5, 12)  # samples span [0, 1.12]
        u = np.linspace(-0.05, 0.05, 21)
        narrow = check(x, rv.tabulated_map("narrow", u, np.sin(u)), 2.0, LEVELS)
        [msg] = [w for w in narrow.warnings if "table" in w]
        assert "[0, 1.12241]" in msg and "[-0.05, 0.05]" in msg
        u = np.linspace(-2.0, 2.0, 201)
        wide = check(x, rv.tabulated_map("wide", u, np.sin(u)), 2.0, LEVELS)
        assert not [w for w in wide.warnings if "table" in w]
        assert rv.sin_map().table_range is None


def compose_path(f, x):
    """Pointwise image f(x(t_j)) on the same grid, checked as the checks read it."""
    return rv.Path(grid_level=x.grid_level, samples=_image(f, x)(0, x.samples.size),
                   label=f"{f.id}({x.label})" if x.label else f.id)


class TestComposePath:
    def test_identity_is_a_bitwise_copy(self, takagi14):
        fx = compose_path(rv.identity_map(), takagi14)
        npt.assert_array_equal(fx.samples, takagi14.samples)
        assert not np.shares_memory(fx.samples, takagi14.samples)

    def test_square_plus_one_of_linear_time(self):
        t = rv.Path(grid_level=2, samples=rv.grid_times(2), label="t")
        fx = compose_path(rv.square_plus_one_map(), t)
        npt.assert_array_equal(fx.samples, [1.0, 1.0625, 1.25, 1.5625, 2.0])
        assert fx.label == "square_plus_one(t)"

    def test_composition_associates(self, takagi14):
        s = rv.sin_map()
        once = compose_path(s, compose_path(s, takagi14))
        direct = np.sin(np.sin(takagi14.samples))
        npt.assert_array_equal(once.samples, direct)

    def test_nonfinite_image_is_reported_with_location(self, takagi14):
        log_map = rv.SmoothMap(id="log", f=np.log,
                               f1=lambda u: 1.0 / np.asarray(u))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match=r"t=0\.0"):
                compose_path(log_map, takagi14)

    def test_map_that_changes_the_sample_count_is_rejected(self, takagi14):
        drop_last = rv.SmoothMap(id="drop_last", f=lambda u: u[:-1],
                                 f1=np.ones_like)
        with pytest.raises(EvaluationError, match="drop_last changed the sample count"):
            compose_path(drop_last, takagi14)


# ---------------------------------------------------------------------------
# Stieltjes sums
# ---------------------------------------------------------------------------


def stieltjes_integral(g, mu):
    """Left-endpoint Stieltjes sums of g against the profile's atoms.

    ``out[j] = sum_{i<j} g[i] * (mu.values[i+1] - mu.values[i])``, aligned
    with ``mu.times``.  With ``g = 1`` this reproduces ``mu.values``
    bitwise, since the same atoms pass through the same accumulation.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != mu.times.shape:
        raise ValidationError(
            f"integrand has {g.size} values, profile has {mu.times.size} points"
        )
    return rv.accurate_cumsum(g[:-1] * mu.terms)


class TestStieltjesIntegral:
    def test_unit_integrand_reproduces_the_profile(self, takagi14):
        mu = rv.scaled_qv(takagi14, rv.dyadic_partition(10, 14), 2.5)
        out = stieltjes_integral(np.ones(mu.times.size), mu)
        npt.assert_array_equal(out, mu.values)

    def test_zero_integrand_gives_zero(self, takagi14):
        mu = rv.pth_variation(takagi14, rv.dyadic_partition(8, 14), 2.0)
        npt.assert_array_equal(stieltjes_integral(np.zeros(mu.times.size), mu),
                               np.zeros(mu.times.size))

    def test_indicator_against_length_measures_the_interval(self):
        t = rv.Path(grid_level=6, samples=rv.grid_times(6))
        mu = rv.pth_variation(t, rv.dyadic_partition(6, 6), 1.0)
        g = (mu.times < 0.5).astype(np.float64)
        assert stieltjes_integral(g, mu)[-1] == 0.5

    def test_linearity(self, takagi14):
        mu = rv.pth_variation(takagi14, rv.dyadic_partition(8, 14), 2.0)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(mu.times.size)
        h = rng.standard_normal(mu.times.size)
        combo = stieltjes_integral(2.0 * g + h, mu)[-1]
        split = 2.0 * stieltjes_integral(g, mu)[-1] + \
            stieltjes_integral(h, mu)[-1]
        npt.assert_allclose(combo, split, rtol=1e-12, atol=1e-15)

    def test_misaligned_integrand_rejected(self, takagi14):
        mu = rv.pth_variation(takagi14, rv.dyadic_partition(8, 14), 2.0)
        with pytest.raises(ValidationError, match="integrand"):
            stieltjes_integral(np.ones(5), mu)


# ---------------------------------------------------------------------------
# Isometry check
# ---------------------------------------------------------------------------


class TestIsometryCheck:
    def test_identity_map_is_exact(self, takagi14):
        rep = rv.isometry_check(takagi14, rv.identity_map(), 2.0, LEVELS)
        assert max(rep.rel_err) == 0.0
        assert rep.success
        assert rep.kind == "isometry" and rep.map_id == "identity"
        assert rep.src_mode == "finest_level"
        assert len(rep.notes) == 1

    def test_affine_map_sits_at_the_rounding_floor(self, fbm14):
        rep = rv.isometry_check(fbm14, rv.affine_map(2.0, -1.0), 2.0, LEVELS)
        assert max(rep.rel_err) <= 1e-12
        assert rep.success

    def test_square_map_error_decays_on_takagi(self, takagi14):
        rep = rv.isometry_check(takagi14, rv.square_plus_one_map(), 2.0, LEVELS)
        assert rep.success
        assert rep.err_trend_slope < 0.0
        assert rep.rel_err[-1] < 0.05
        assert rep.rel_err[-1] < rep.rel_err[0]

    def test_sine_map_on_fractional_brownian_path(self, fbm14):
        rep = rv.isometry_check(fbm14, rv.sin_map(), 2.5, LEVELS)
        assert rep.success
        assert rep.rel_err[-1] < 0.05

    def test_quadratic_case_left_side_is_plain_qv(self, takagi14):
        f = rv.square_plus_one_map()
        rep = rv.isometry_check(takagi14, f, 2.0, [8, 10])
        fx = compose_path(f, takagi14)
        for n, lhs in zip(rep.levels, rep.lhs_terminal):
            direct = rv.pth_variation(fx, rv.dyadic_partition(n, 14), 2.0).terminal
            npt.assert_allclose(lhs, direct, rtol=1e-12)

    def test_far_from_critical_index_warns(self, takagi14):
        rep = rv.isometry_check(takagi14, rv.sin_map(), 4.0, LEVELS)
        assert any("critical index" in w for w in rep.warnings)

    def test_vanishing_derivative_warns(self, takagi14):
        # the path starts at 0, where the square map's derivative vanishes
        rep = rv.isometry_check(takagi14, rv.square_plus_one_map(), 2.0, LEVELS)
        assert any("vanishing derivative" in w for w in rep.warnings)

    def test_derivative_warning_reads_the_right_side_factors(self, fbm14):
        """It fires when a factor |f1|**p is 0 at a left sample of a checked level.

        At x(0) = 0, a left sample of every level, |1e-200|**2.5 underflows
        to 0; a derivative that vanishes only at x(1) weights no term.
        """
        end = fbm14.samples[-1]
        assert fbm14.samples[0] == 0.0 and np.count_nonzero(fbm14.samples == end) == 1
        for f1, warns in [(lambda u: np.where(u == 0.0, 1e-200, 1.0), True),
                          (lambda u: np.where(u == end, 0.0, 1.0), False)]:
            f = rv.SmoothMap("identity", f=lambda u: u.copy(), f1=f1)
            rep = rv.isometry_check(fbm14, f, 2.5, LEVELS)
            assert any("vanishing derivative" in w for w in rep.warnings) == warns

    @pytest.mark.parametrize("level", [14, 17])
    def test_each_sample_is_mapped_once(self, level):
        """f once per sample (neighbouring tiles share one), f1 once per right-side term."""
        x = rv.fbm_path(0.4, level, seed=1)
        calls = {"f": 0, "f1": 0}

        def counted(name, fn):
            def g(u):
                calls[name] += u.size
                return fn(u)
            return g

        levels = range(6, level - 1)
        rv.isometry_check(x, rv.SmoothMap("sin", counted("f", np.sin),
                                          counted("f1", np.cos)), 2.5, levels)
        assert calls["f"] == 2 ** level + max(1, 2 ** level // grid._BLOCK)
        assert calls["f1"] == sum(2 ** n for n in levels)

    def test_alpha_proxy_tracks_regularity(self, takagi14):
        assert abs(rv.holder_proxy(takagi14, LEVELS) - 0.5) < 0.1
        smooth = rv.smooth_perturbation("sine", 1.0, 12, {"freq": 1.0})
        assert abs(rv.holder_proxy(smooth, range(4, 11)) - 1.0) < 0.2

    @pytest.mark.parametrize("level,lv", [(14, list(range(6, 13))),
                                          (18, list(range(1, 17))),
                                          (17, [15, 3, 9, 3, 12, 1, 7, 15, 16])],
                             ids=["14", "18", "17-unsorted-duplicates"])
    def test_alpha_proxy_is_the_strided_max_increment_fit(self, level, lv):
        # the proxy takes each level's max |dx| from a p = 1 pyramid pass (at
        # level 18: four tiles of 2**16 grid increments, levels below 9 from
        # every 2**9-th sample); it equals the fit over whole-level strided
        # diffs, also for levels given unsorted and twice
        x = rv.fbm_path(0.4, level, seed=2)
        mags = [np.max(np.abs(np.diff(x.samples[::2 ** (level - n)]))) for n in lv]
        direct = -_tail_slope(np.asarray(lv, dtype=np.float64), np.asarray(mags))
        assert rv.holder_proxy(x, lv) == float(direct)
        for rep in (rv.isometry_check(x, rv.sin_map(), 2.5, lv),
                    rv.chain_rule_check(x, rv.sin_map(), 2.5, lv),
                    rv.invariance_check(x, rv.smooth_perturbation("sine", 0.5, level),
                                        2.5, lv)):
            assert rep.alpha_proxy == float(direct)

    def test_argument_validation(self, takagi14):
        with pytest.raises(ValidationError, match="p must be > 0"):
            rv.isometry_check(takagi14, rv.sin_map(), 0.0, LEVELS)
        with pytest.raises(ValidationError, match="at least 2"):
            rv.isometry_check(takagi14, rv.sin_map(), 2.0, [8])
        with pytest.raises(ValidationError, match="lie in"):
            rv.isometry_check(takagi14, rv.sin_map(), 2.0, [8, 20])


class TestChainRuleCheck:
    def test_identity_map_is_exact(self, takagi14):
        rep = rv.chain_rule_check(takagi14, rv.identity_map(), 2.0, LEVELS)
        assert max(rep.rel_err) == 0.0
        assert rep.success and rep.kind == "chain_rule"

    def test_scaling_map_is_exactly_homogeneous(self, takagi14):
        rep = rv.chain_rule_check(takagi14, rv.affine_map(2.0, 0.0), 2.5, LEVELS)
        assert max(rep.rel_err) <= 1e-12
        assert rep.success
        # both sides are 2**2.5 times the bare variation
        bare = rv.pth_variation(takagi14, rv.dyadic_partition(12, 14), 2.5).terminal
        npt.assert_allclose(rep.lhs_terminal[-1], 2.0 ** 2.5 * bare, rtol=1e-12)

    def test_sine_map_error_decays(self, takagi14):
        rep = rv.chain_rule_check(takagi14, rv.sin_map(), 2.0, LEVELS)
        assert rep.success
        assert rep.err_trend_slope < 0.0
        assert rep.rel_err[-1] < 0.05


class TestInvarianceCheck:
    def test_zero_perturbation_changes_nothing(self, takagi14):
        zero = rv.Path(grid_level=14, samples=np.zeros(2 ** 14 + 1))
        rep = rv.invariance_check(takagi14, zero, 2.0, LEVELS)
        assert max(rep.rel_err) == 0.0
        assert rep.success and rep.kind == "invariance"
        assert not rep.warnings

    def test_smooth_perturbation_washes_out(self, takagi14):
        A = rv.smooth_perturbation("sine", 0.5, 14, {"freq": 1.0})
        rep = rv.invariance_check(takagi14, A, 2.0, [6, 8, 10, 12])
        assert rep.success
        assert rep.rel_err[-1] < 0.02
        assert all(b < a for a, b in zip(rep.rel_err, rep.rel_err[1:]))
        assert not rep.warnings

    def test_rough_perturbation_warns(self, takagi14):
        rep = rv.invariance_check(takagi14, takagi14, 2.0, LEVELS)
        assert any("hypothesis violated" in w for w in rep.warnings)

    def test_grid_mismatch_rejected(self, takagi14):
        small = rv.smooth_perturbation("sine", 0.5, 10, {"freq": 1.0})
        with pytest.raises(ValidationError, match="grid level"):
            rv.invariance_check(takagi14, small, 2.0, LEVELS)


def _tanh_table():
    u = np.linspace(-4.0, 4.0, 161)
    return rv.tabulated_map("tanh", u, np.tanh(u))


MAPS = [rv.identity_map(), rv.affine_map(2.0, 1.0), rv.square_plus_one_map(),
        rv.sin_map(), rv.exp_clamped_map(), _tanh_table()]


class TestTiledLeftSide:
    """The left side of each check reads f(x), or x + A, a tile at a time.

    A level-18 path is four tiles of 2**16 grid increments, and levels 0-8
    are taken from every 2**9-th sample after the sweep; the terminals are
    bitwise those of a pass over the whole image.
    """

    LV = list(range(0, 19))

    @pytest.fixture(scope="class")
    def fbm18(self):
        return rv.fbm_path(0.4, 18, seed=4)

    @pytest.mark.parametrize("f", MAPS, ids=lambda f: f.id)
    def test_terminals_are_those_of_the_composed_path(self, fbm18, f):
        fx = compose_path(f, fbm18)
        iso = rv.isometry_check(fbm18, f, 2.5, self.LV)
        assert iso.lhs_terminal == tuple(_level_terminals(fx, self.LV, "scaled", 2.5))
        chain = rv.chain_rule_check(fbm18, f, 2.5, self.LV)
        assert chain.lhs_terminal == tuple(_level_terminals(fx, self.LV, "pth", 2.5))

    @pytest.mark.parametrize("kind, params", [("sine", {"freq": 3.0}),
                                              ("poly", {"coeffs": [0.0, 1.0, -0.5]})])
    def test_perturbed_terminals_are_those_of_the_sum(self, fbm18, kind, params):
        A = rv.smooth_perturbation(kind, 0.3, 18, params)
        xa = rv.Path(grid_level=18, samples=fbm18.samples + A.samples)
        rep = rv.invariance_check(fbm18, A, 2.5, self.LV)
        assert rep.lhs_terminal == tuple(_level_terminals(xa, self.LV, "scaled", 2.5))

    @pytest.mark.parametrize("j", [5, 1 << 16, (1 << 16) + 3, 1 << 18])
    def test_first_nonfinite_image_value_is_reported_as_compose_path_reports_it(self, j):
        t = rv.Path(grid_level=18, samples=rv.grid_times(18), label="t")
        edge = float(t.samples[j])
        blowup = rv.SmoothMap(id="blowup", f=lambda u: np.where(u >= edge, np.inf, u),
                              f1=np.ones_like)
        with pytest.raises(EvaluationError) as whole:
            compose_path(blowup, t)
        assert str(whole.value) == f"map blowup produced a non-finite value at t={edge}"
        for check in (rv.isometry_check, rv.chain_rule_check):
            with pytest.raises(EvaluationError) as tiled:
                check(t, blowup, 2.0, [4, 8])
            assert str(tiled.value) == str(whole.value)

    @pytest.mark.parametrize("j", [7, (1 << 16) + 1])
    def test_overflowing_sum_is_reported_as_a_path_of_it_would_be(self, j):
        big = np.full((1 << 18) + 1, 1e308)
        A = big.copy()
        A[:j] = 0.0
        x = rv.Path(grid_level=18, samples=big)
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError) as whole:
                rv.Path(grid_level=18, samples=big + A)
            with pytest.raises(ValidationError) as tiled:
                rv.invariance_check(x, rv.Path(grid_level=18, samples=A), 2.0, [4, 8])
        assert str(tiled.value) == str(whole.value)
        assert f"index {j} " in str(whole.value)


class TestNonFiniteSides:
    """A side whose terminal overflows has no error to compare: exit 2, not NaN."""

    def test_perturbation_that_overflows_the_left_side(self):
        x = rv.takagi_path(0.5, 12)
        A = rv.smooth_perturbation("sine", 1e308, 12)
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError,
                               match="invariance lhs terminal at level 6 is inf"):
                rv.invariance_check(x, A, 2.0)

    def test_map_that_overflows_both_sides(self):
        x = rv.fbm_path(0.4, 12, seed=1)
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError,
                               match="isometry lhs terminal at level 6 is inf"):
                rv.isometry_check(x, rv.affine_map(1e308, 0.0), 2.0)

    def test_right_side_alone(self):
        # f1 overflows the right side's |f'(x)|**p while f(x) stays finite
        x = rv.takagi_path(0.5, 10)
        steep = rv.SmoothMap(id="steep", f=np.sin, f1=lambda u: np.full_like(u, 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError,
                               match="chain_rule rhs terminal at level 4 is inf"):
                rv.chain_rule_check(x, steep, 2.0, [4, 6, 8])


class TestTwoSidedMemory:
    """Traced allocations of a check on a level-20 path, in units of its bytes.

    The checks hold tile-sized arrays only: f(x), x + A, the derivative's
    minimum and each level's largest increment are all taken a tile at a
    time.  Measured 0.14-0.38; a check that makes f(x), x + A or a strided
    difference of the whole path holds at least 0.5.
    """

    @pytest.fixture(scope="class")
    def fbm20(self):
        return rv.fbm_path(0.4, 20, seed=1)

    @pytest.fixture(scope="class")
    def sine20(self):
        return rv.smooth_perturbation("sine", 0.5, 20)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("check", [
        lambda x, A: rv.isometry_check(x, rv.sin_map(), 2.5),
        lambda x, A: rv.isometry_check(x, _tanh_table(), 2.5),
        lambda x, A: rv.chain_rule_check(x, rv.square_plus_one_map(), 2.5),
        lambda x, A: rv.invariance_check(x, A, 2.5),
    ], ids=["isometry-sin", "isometry-table", "chain_rule", "invariance"])
    def test_checks_hold_no_path_sized_array(self, fbm20, sine20, check):
        peak = self._peak(lambda: check(fbm20, sine20))
        assert peak < 0.5 * fbm20.samples.nbytes, peak / fbm20.samples.nbytes

    def test_holder_proxy_takes_increments_a_tile_at_a_time(self, fbm20):
        peak = self._peak(lambda: rv.holder_proxy(fbm20, range(6, 19)))
        assert peak < 0.1 * fbm20.samples.nbytes, peak / fbm20.samples.nbytes


class TestReportOutput:
    def test_csv_layout(self, takagi14, tmp_path):
        rep = rv.isometry_check(takagi14, rv.sin_map(), 2.0, [6, 8, 10])
        out = tmp_path / "iso.csv"
        rv.write_report_csv(rep, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,lhs,rhs,rel_err"
        assert len(lines) == 1 + 3
        level, lhs, rhs, rel = (float(s) for s in lines[-1].split(","))
        assert level == 10.0
        npt.assert_allclose(lhs, rep.lhs_terminal[-1], rtol=1e-15)
        npt.assert_allclose(rel, rep.rel_err[-1], rtol=1e-15)

    def test_verdict_without_an_error_trend_is_a_plain_bool(self, takagi14):
        # the path starts and ends at 0, so both sides agree exactly at level
        # 0 and only one relative error is left for the trend fit
        rep = rv.chain_rule_check(takagi14, rv.sin_map(), 2.0, [0, 1])
        assert rep.rel_err[0] == 0.0 and np.isnan(rep.err_trend_slope)
        assert rep.success is False

    def test_report_dict_is_json_ready(self, takagi14):
        import json
        rep = rv.chain_rule_check(takagi14, rv.sin_map(), 2.0, [6, 8, 10])
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["kind"] == "chain_rule"
        assert len(doc["rel_err"]) == 3


# ---------------------------------------------------------------------------
# Default levels
# ---------------------------------------------------------------------------

_CHECKS = {
    "isometry": lambda x: rv.isometry_check(x, rv.sin_map(), 2.0, levels=None),
    "chain_rule": lambda x: rv.chain_rule_check(x, rv.sin_map(), 2.0, levels=None),
    "invariance": lambda x: rv.invariance_check(
        x, rv.smooth_perturbation("sine", 0.5, x.grid_level, {"freq": 1.0}), 2.0,
        levels=None),
}


class TestDefaultLevels:
    @pytest.mark.parametrize("kind", _CHECKS)
    def test_levels_default_to_the_default_window(self, kind, takagi14):
        rep = _CHECKS[kind](takagi14)
        assert rep.kind == kind
        assert list(rep.levels) == list(rv.default_levels(takagi14))

    @pytest.mark.parametrize("kind", _CHECKS)
    def test_grid_too_short_for_two_default_levels(self, kind):
        short = rv.takagi_path(0.5, 8)
        assert list(rv.default_levels(short)) == [6]
        with pytest.raises(ValidationError, match="need at least 2 levels"):
            _CHECKS[kind](short)
