"""Variation kernel tests.

The kernels are checked against naive direct-summation references defined
here (plain Python loops, no shared code with the implementation), against
closed forms, and against an extended-precision accumulation oracle.
"""

import itertools
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvar as rv
from roughvar import variation
from roughvar.errors import (EvaluationError, FormatError, ResolutionError, SourceError,
                             ValidationError)
from roughvar.variation import _level_metadata, _level_terminals

# ---------------------------------------------------------------------------
# Naive references
# ---------------------------------------------------------------------------


def naive_pth_variation(samples, indices, p):
    total, out = 0.0, [0.0]
    for a, b in zip(indices, indices[1:]):
        total += abs(samples[b] - samples[a]) ** p
        out.append(total)
    return out


def naive_scaled_qv(samples, indices, p, weights):
    gamma = (p - 2.0) / p
    total, out = 0.0, [0.0]
    for (a, b), w in zip(zip(indices, indices[1:]), weights):
        dx = samples[b] - samples[a]
        if gamma == 0.0:
            term = dx * dx
        elif w == 0.0 and dx == 0.0:
            term = 0.0
        elif w == 0.0 and gamma < 0.0:
            term = math.inf
        else:
            term = w ** gamma * dx * dx
        total += term
        out.append(total)
    return out


def random_cases(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(8, 33))
        level = max(1, (size - 2).bit_length())
        samples = rng.standard_normal((1 << level) + 1)
        # random sub-partition of the grid including both endpoints
        n_pts = int(rng.integers(2, min(size, 1 << level) + 1))
        interior = rng.choice(np.arange(1, 1 << level), size=n_pts - 2,
                              replace=False) if n_pts > 2 else []
        indices = np.sort(np.concatenate([[0], interior, [1 << level]]).astype(int))
        p = float(rng.uniform(0.5, 5.0))
        yield level, samples, indices, p


# ---------------------------------------------------------------------------
# accurate_cumsum
# ---------------------------------------------------------------------------


class TestAccurateCumsum:
    def test_empty_input_gives_just_zero(self):
        npt.assert_array_equal(rv.accurate_cumsum([]), [0.0])

    def test_small_array_is_exact(self):
        out = rv.accurate_cumsum([1.0, 2.0, 3.0])
        npt.assert_array_equal(out, [0.0, 1.0, 3.0, 6.0])

    def test_crosses_block_boundaries(self):
        terms = np.ones(4097)
        out = rv.accurate_cumsum(terms)
        assert out[-1] == 4097.0
        assert out[4096] == 4096.0

    def test_matches_fsum_prefixes(self):
        rng = np.random.default_rng(3)
        terms = rng.standard_normal(10000) * 10.0 ** rng.integers(-8, 8, 10000)
        out = rv.accurate_cumsum(terms)
        for j in (1, 9999, 10000):
            want = math.fsum(terms[:j])
            assert abs(out[j] - want) <= 1e-12 * max(1.0, abs(want))

    def test_beats_sequential_float64_on_large_same_sign_input(self):
        rng = np.random.default_rng(1)
        terms = rng.random(1 << 20) + 0.5
        out = rv.accurate_cumsum(terms)
        oracle = float(np.sum(terms.astype(np.longdouble)))
        assert abs(out[-1] - oracle) / oracle < 1e-14
        assert np.all(np.diff(out) >= 0.0)
        terms = np.random.default_rng(5).random(1 << 18) + 0.5
        want = math.fsum(terms.tolist())
        assert abs(rv.accurate_cumsum(terms)[-1] - want) <= 2e-15 * want

    def test_flat_run_after_a_block_edge_keeps_finest_weights_unclamped(self):
        # accurate_cumsum once dipped by one ulp where a flat stretch starts
        # at a block edge
        inc = np.random.default_rng(0).standard_normal(1 << 13) * 2.0 ** -6.5
        inc[4096:4096 + 64] = 0.0
        x = rv.Path(grid_level=13, samples=np.concatenate([[0.0], np.cumsum(inc)]))
        part = rv.dyadic_partition(13, 13)
        finest = rv.pth_variation(x, part, 2.5)
        assert np.all(np.diff(finest.values) >= 0.0)
        assert rv.scaled_qv(x, part, 2.5).clamped == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 4095),
           st.lists(st.integers(0, 300), min_size=4, max_size=4))
    def test_nonnegative_terms_give_a_nondecreasing_profile(self, seed, blocks,
                                                            extra, runs):
        rng = np.random.default_rng(seed)
        n = (blocks - 1) * 4096 + extra + 1
        terms = rng.random(n) * 10.0 ** rng.uniform(-4, 4, n)
        for edge, run in zip(range(0, n, 4096), runs):
            terms[edge:edge + run] = 0.0       # zeros from a block edge on
            terms[max(edge - run, 0):edge] = 0.0  # and up to it
        out = rv.accurate_cumsum(terms)
        assert np.all(np.diff(out) >= 0.0)
        assert out[-1] == np.sum(terms)
        assert out[-1] == variation._level_total(terms)

    def test_infinite_term_propagates(self):
        out = rv.accurate_cumsum([1.0, np.inf, 1.0])
        assert out[1] == 1.0
        assert np.isinf(out[2]) and np.isinf(out[3])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), max_size=300))
    def test_terminal_agrees_with_fsum(self, values):
        out = rv.accurate_cumsum(values)
        assert out.size == len(values) + 1
        want = math.fsum(values)
        assert abs(out[-1] - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# p-th variation
# ---------------------------------------------------------------------------


class TestPthVariation:
    def test_matches_naive_reference(self):
        for level, samples, indices, p in random_cases(60, seed=10):
            x = rv.Path(grid_level=level, samples=samples)
            part = rv.Partition(level=0, indices=indices)
            prof = rv.pth_variation(x, part, p)
            want = naive_pth_variation(samples, indices, p)
            npt.assert_allclose(prof.values, want, rtol=1e-14, atol=1e-300)

    def test_values_start_at_zero_and_never_decrease(self):
        x = rv.fbm_path(0.5, 8, seed=1)
        prof = rv.pth_variation(x, rv.dyadic_partition(8, 8), 1.7)
        assert prof.values[0] == 0.0
        assert np.all(np.diff(prof.values) >= 0.0)

    def test_linear_path_total_variation_is_one(self):
        t = rv.Path(grid_level=6, samples=rv.grid_times(6))
        prof = rv.pth_variation(t, rv.dyadic_partition(4, 6), 1.0)
        npt.assert_allclose(prof.terminal, 1.0, rtol=1e-14)

    def test_metadata_fields(self):
        x = rv.takagi_path(0.5, 8)
        prof = rv.pth_variation(x, rv.dyadic_partition(5, 8), 2.0)
        assert prof.kind == "pth" and prof.level == 5 and prof.p == 2.0
        assert prof.gamma is None and not prof.divergent
        assert prof.values.size == prof.times.size == 33

    def test_nonpositive_p_rejected(self):
        x = rv.takagi_path(0.5, 4)
        with pytest.raises(ValidationError):
            rv.pth_variation(x, rv.dyadic_partition(2, 4), 0.0)

    def test_profile_values_are_read_only(self):
        x = rv.takagi_path(0.5, 4)
        prof = rv.pth_variation(x, rv.dyadic_partition(2, 4), 2.0)
        with pytest.raises(ValueError):
            prof.values[0] = 9.9


# ---------------------------------------------------------------------------
# Scaled quadratic variation and sources
# ---------------------------------------------------------------------------


class TestPVarSource:
    def test_unknown_mode_rejected(self):
        for mode in ("psychic", "self_level"):
            with pytest.raises(ValidationError, match="unknown source mode"):
                rv.PVarSource(mode=mode)

    def test_analytic_requires_callable(self):
        with pytest.raises(ValidationError, match="analytic_fn"):
            rv.PVarSource(mode="analytic")

    def test_analytic_must_vanish_at_zero(self):
        # checked when made, on t = (0, 1)
        with pytest.raises(SourceError, match="vanish at t=0"):
            rv.PVarSource.analytic(lambda t: t + 1.0)

    def test_analytic_must_be_nondecreasing(self):
        with pytest.raises(SourceError, match="nondecreasing"):
            rv.PVarSource.analytic(lambda t: -np.asarray(t))
        # one that is 0 at both ends but dips between is caught where read
        x = rv.takagi_path(0.5, 6)
        src = rv.PVarSource.analytic(lambda t: np.abs(2.0 * np.asarray(t) - 1.0) - 1.0)
        with pytest.raises(SourceError, match="nondecreasing"):
            rv.scaled_qv(x, rv.dyadic_partition(4, 6), 3.0, src)

    @pytest.mark.parametrize("fn, message", [
        (lambda t: np.full_like(np.asarray(t, dtype=np.float64), np.nan),
         "must be finite, got nan at t=0.0"),
        (lambda t: np.where(np.asarray(t) < 1.0, 0.0, np.inf), "must be finite, got inf at t=1.0"),
        (lambda t: 0.0, "one value per partition point"),
        (lambda t: np.asarray(t) - 1e-6, "vanish at t=0")])
    def test_analytic_source_is_checked_when_made(self, fn, message):
        # at p = 2 no weight is read, so a bad function was recorded as the source
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SourceError, match=message):
                rv.PVarSource.analytic(fn)
        with pytest.raises(SourceError, match=message):
            rv.PVarSource(mode="analytic", analytic_fn=fn)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_analytic_values_must_be_finite(self, bad):
        def fn(t):  # finite at t = 0 and 1, where the source is checked when made
            t = np.asarray(t, dtype=np.float64)
            return np.where((t < 0.75) | (t == 1.0), t, bad)

        src = rv.PVarSource.analytic(fn)
        message = f"analytic_fn must be finite, got {bad} at t=0.75"
        x = rv.takagi_path(0.5, 6)
        with pytest.raises(SourceError, match=message):
            rv.scaled_qv(x, rv.dyadic_partition(4, 6), 3.0, src)
        # the pass names the first bad time of its finest level, across tiles
        # and below them
        for x, levels in ((x, [2, 4, 6]), (rv.fbm_path(0.4, 18, seed=1), [2, 9, 17])):
            with pytest.raises(SourceError, match=message):
                _level_terminals(x, levels, "scaled", 3.0, src=src)

    @pytest.mark.parametrize("C, message", [
        (math.nan, "must be finite, got nan at t=0.0"),
        (math.inf, "must be finite, got nan at t=0.0"),
        (-math.inf, "must be finite, got nan at t=0.0"),
        (-1.0, "must be nondecreasing")])
    def test_linear_source_is_checked_when_made(self, C, message):
        # at p = 2 no weight is read, so a bad C went unnoticed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SourceError, match=message):
                rv.PVarSource.linear(C)
        assert rv.PVarSource.linear(0.0).analytic_fn(np.array([0.5, 1.0])).tolist() == [0, 0]

    def test_tiny_negative_increments_are_clamped_and_counted(self):
        x = rv.takagi_path(0.5, 6)

        def wobble(t):
            # staircase dips 2.5e-10 below flat on odd blocks: increments
            # alternate between ~1/16 and -2.5e-10, inside the clamp tolerance
            t = np.asarray(t, dtype=np.float64)
            return t - (1.0 / 32.0 + 2.5e-10) * (np.floor(32.0 * t) % 2.0)

        prof = rv.scaled_qv(x, rv.dyadic_partition(5, 6), 3.0,
                            rv.PVarSource.analytic(wobble))
        assert prof.clamped > 0
        assert np.all(prof.terms >= 0.0)

    def test_materialized_is_the_same_source(self):
        # the benchmark's oracle check scales QV with PVarSource().materialized
        x = rv.fbm_path(0.4, 10, seed=3)
        src = rv.PVarSource()
        assert src.materialized(x, 2.5) is src
        interior = np.sort(np.random.default_rng(4).choice(
            np.arange(1, 1 << 10), size=37, replace=False))
        indices = np.concatenate([[0], interior, [1 << 10]])
        for part in (rv.dyadic_partition(7, 10), rv.Partition(level=0, indices=indices)):
            for p in (1.5, 2.5):
                got = rv.scaled_qv(x, part, p, src.materialized(x, p))
                assert got.terms.tobytes() == rv.scaled_qv(x, part, p).terms.tobytes()


class TestScaledQV:
    def test_matches_naive_reference_with_linear_weights(self):
        for level, samples, indices, p in random_cases(60, seed=20):
            x = rv.Path(grid_level=level, samples=samples)
            part = rv.Partition(level=0, indices=indices)
            prof = rv.scaled_qv(x, part, p, rv.PVarSource.linear(1.7))
            weights = [1.7 * (b * 2.0 ** -level) - 1.7 * (a * 2.0 ** -level)
                       for a, b in zip(indices, indices[1:])]
            want = naive_scaled_qv(samples, indices, p, weights)
            npt.assert_allclose(prof.values, want, rtol=1e-13, atol=1e-300)

    def test_default_source_weights_are_block_sums(self):
        """A block's default weight is the sum of its grid-level ``|dx|**p``."""
        for level, samples, indices, p in random_cases(40, seed=31):
            x = rv.Path(grid_level=level, samples=samples)
            part = rv.Partition(level=0, indices=indices)
            fine = np.abs(np.diff(samples)) ** p
            weights = [math.fsum(fine[a:b].tolist())
                       for a, b in zip(indices, indices[1:])]
            want = naive_scaled_qv(samples, indices, p, weights)
            npt.assert_allclose(rv.scaled_qv(x, part, p).values, want,
                                rtol=1e-13, atol=1e-300)

    def test_tiny_block_weights_do_not_cancel_to_false_divergence(self):
        """A block weight far below one ulp of the running total stays positive.

        Differences of the cumulative grid-level profile rounded every block
        after the first to weight 0, so q < 2 gave +inf and a divergent flag.
        """
        inc = np.full(1 << 10, 1e-12)
        inc[0] = 1.0
        x = rv.Path(grid_level=10, samples=np.concatenate([[0.0], np.cumsum(inc)]))
        prof = rv.scaled_qv(x, rv.dyadic_partition(9, 10), 1.5)
        fine = np.abs(np.diff(x.samples)) ** 1.5
        w = np.array([math.fsum(b) for b in fine.reshape(512, 2).tolist()])
        dx = np.diff(x.samples[::2])
        oracle = math.fsum((w ** (-0.5 / 1.5) * dx * dx).tolist())
        assert not prof.divergent
        assert prof.clamped == 0
        npt.assert_allclose(prof.terminal, oracle, rtol=1e-13)
        npt.assert_allclose(oracle, 1.0000000000020017, rtol=1e-15)

    def test_gamma_zero_collapses_to_quadratic_variation_elementwise(self):
        x = rv.fbm_path(0.3, 10, seed=4)
        part = rv.dyadic_partition(7, 10)
        qv = rv.pth_variation(x, part, 2.0)
        for src in (None, rv.PVarSource.linear(2.0)):
            prof = rv.scaled_qv(x, part, 2.0, src)
            npt.assert_array_equal(prof.terms, qv.terms)
            npt.assert_array_equal(prof.values, qv.values)
            assert prof.gamma == 0.0

    def test_finest_source_at_the_grid_level_reproduces_pth_variation(self):
        # each grid block's weight is its own |dx|**p: w**gamma * dx**2 = |dx|**p
        x = rv.takagi_path(0.4, 10)
        part = rv.dyadic_partition(10, 10)
        for p in (1.5, 2.5, 3.0):
            a = rv.scaled_qv(x, part, p)
            b = rv.pth_variation(x, part, p)
            npt.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_takagi_closed_form_terminal(self):
        x = rv.takagi_path(0.5, 14)
        for n in (2, 9, 14):
            prof = rv.scaled_qv(x, rv.dyadic_partition(n, 14), 2.0)
            npt.assert_allclose(prof.terminal, 1.0 - 2.0 ** -n, atol=1e-12)

    def test_zero_weight_zero_increment_contributes_nothing(self):
        flat = rv.Path(grid_level=3, samples=np.zeros(9))
        prof = rv.scaled_qv(flat, rv.dyadic_partition(3, 3), 1.5)
        npt.assert_array_equal(prof.terms, np.zeros(8))
        assert not prof.divergent

    def test_zero_weight_nonzero_increment_diverges_for_p_below_two(self):
        x = rv.takagi_path(0.5, 5)
        dead = rv.PVarSource.analytic(lambda t: np.zeros_like(np.asarray(t)))
        prof = rv.scaled_qv(x, rv.dyadic_partition(4, 5), 1.5, dead)
        assert prof.divergent
        assert np.isinf(prof.terminal)
        assert prof.atom_risk == 1.0

    def test_zero_weight_nonzero_increment_vanishes_for_p_above_two(self):
        x = rv.takagi_path(0.5, 5)
        dead = rv.PVarSource.analytic(lambda t: np.zeros_like(np.asarray(t)))
        prof = rv.scaled_qv(x, rv.dyadic_partition(4, 5), 3.0, dead)
        assert prof.terminal == 0.0
        assert not prof.divergent

    def test_overflowed_weight_is_an_infinite_term(self):
        """A weight past the double range is an overflow, never a zero term.

        ``|dx|**1.5`` of 1e300-sized steps is inf, and inf**gamma is 0 at
        gamma < 0: the scaled terms read 0 and the level "vanished".
        """
        x = rv.smooth_perturbation("sine", 1e300, 10)
        for src in (None, rv.PVarSource.linear(1.0)):
            with np.errstate(over="ignore"):
                prof = rv.scaled_qv(x, rv.dyadic_partition(4, 10), 1.5, src)
            assert np.isinf(prof.terms).all() and not prof.divergent
            with pytest.raises(EvaluationError, match="^sqv terminal at level 2 is inf"):
                _level_metadata(x, [4, 2, 6], "scaled", 1.5, src=src, name="sqv")

    def test_source_mode_recorded(self):
        x = rv.takagi_path(0.5, 8)
        part = rv.dyadic_partition(6, 8)
        assert rv.scaled_qv(x, part, 2.5).src_mode == "finest_level"
        assert rv.scaled_qv(x, part, 2.5,
                            rv.PVarSource.linear(1.0)).src_mode == "analytic"

    def test_atom_risk_flags_concentrated_measure(self):
        jump = np.zeros(17)
        jump[8:] = 1.0
        x = rv.Path(grid_level=4, samples=jump)
        prof = rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0)
        assert prof.atom_risk == 1.0
        spread = rv.pth_variation(rv.takagi_path(0.5, 8),
                                  rv.dyadic_partition(8, 8), 2.0)
        assert spread.atom_risk < 0.05


class TestClassicalScaledQV:
    def test_matches_naive_time_weighted_sum(self):
        rng = np.random.default_rng(8)
        x = rv.Path(grid_level=6, samples=rng.standard_normal(65))
        part = rv.Partition(level=0, indices=[0, 3, 10, 40, 64])
        gamma = -0.4
        prof = rv.classical_scaled_qv(x, part, gamma)
        t = part.times(6)
        want = [0.0]
        for j in range(4):
            dt, dx = t[j + 1] - t[j], x.samples[part.indices[j + 1]] - x.samples[part.indices[j]]
            want.append(want[-1] + dt ** gamma * dx * dx)
        npt.assert_allclose(prof.values, want, rtol=1e-14)

    def test_gamma_zero_is_plain_quadratic_variation(self):
        x = rv.fbm_path(0.6, 9, seed=7)
        part = rv.dyadic_partition(6, 9)
        npt.assert_array_equal(rv.classical_scaled_qv(x, part, 0.0).terms,
                               rv.pth_variation(x, part, 2.0).terms)

    def test_kind_and_gamma_recorded(self):
        x = rv.takagi_path(0.5, 6)
        prof = rv.classical_scaled_qv(x, rv.dyadic_partition(4, 6), 0.5)
        assert prof.kind == "classical_scaled"
        assert prof.gamma == 0.5


# ---------------------------------------------------------------------------
# Limit diagnostics
# ---------------------------------------------------------------------------


class TestLimitDiagnostics:
    def test_geometric_decay_is_vanishing(self):
        rep = rv.limit_diagnostics([2.0 ** -n for n in range(2, 10)], window=4)
        assert rep.classification == "vanishing"
        npt.assert_allclose(rep.trend_slope, -1.0, atol=1e-9)

    def test_geometric_growth_is_diverging(self):
        rep = rv.limit_diagnostics([2.0 ** n for n in range(2, 10)], window=4)
        assert rep.classification == "diverging"

    def test_tiny_tail_is_vanishing_by_magnitude(self):
        rep = rv.limit_diagnostics([1.0, 1e-8, 1.1e-8, 0.9e-8], window=3)
        assert rep.classification == "vanishing"

    def test_huge_tail_is_diverging_by_magnitude(self):
        rep = rv.limit_diagnostics([1.0, 1e7, 0.9e7, 1.1e7], window=3)
        assert rep.classification == "diverging"

    def test_stable_positive_sequence_is_finite_positive(self):
        vals = [1.0 - 2.0 ** -n for n in range(2, 12)]
        rep = rv.limit_diagnostics(vals, window=4)
        assert rep.classification == "finite_positive"
        assert 0.99 <= rep.liminf_est <= rep.limsup_est <= 1.0

    def test_alternating_magnitudes_oscillate(self):
        # symmetric alternation: the trend fit is exactly flat, the spread huge
        vals = [1e2, 1e-3, 1e2, 1e-3, 1e2, 1e-3, 1e2]
        rep = rv.limit_diagnostics(vals, window=7)
        assert rep.classification == "oscillating"

    def test_window_cuts_off_early_levels(self):
        # early transient is huge, tail is settled: window must ignore the head
        vals = [1e9, 1e5, 1.0, 1.0, 1.0, 1.0]
        rep = rv.limit_diagnostics(vals, window=3)
        assert rep.classification == "finite_positive"
        assert rep.limsup_est == 1.0

    def test_borderline_small_monotone_tail_is_inconclusive(self):
        vals = [2.0, 1.1e-6, 1.05e-6, 0.95e-6]
        rep = rv.limit_diagnostics(vals, window=3)
        assert rep.classification == "inconclusive"

    def test_limsup_liminf_are_tail_extremes(self):
        rep = rv.limit_diagnostics([5.0, 1.0, 3.0, 2.0], window=3)
        assert rep.limsup_est == 3.0
        assert rep.liminf_est == 1.0

    def test_explicit_levels_drive_the_slope(self):
        # same values, stretched levels: slope halves
        a = rv.limit_diagnostics([4.0, 2.0, 1.0], window=3, levels=[1, 2, 3])
        b = rv.limit_diagnostics([4.0, 2.0, 1.0], window=3, levels=[2, 4, 6])
        npt.assert_allclose(a.trend_slope, -1.0, atol=1e-12)
        npt.assert_allclose(b.trend_slope, -0.5, atol=1e-12)

    def test_needs_three_levels(self):
        with pytest.raises(ValidationError, match="at least 3"):
            rv.limit_diagnostics([1.0, 2.0], window=2)

    def test_window_must_fit(self):
        with pytest.raises(ValidationError, match="window"):
            rv.limit_diagnostics([1.0, 2.0, 3.0], window=4)

    def test_report_round_trips_to_json(self):
        rep = rv.limit_diagnostics([1.0, 1.0, 1.0], window=3)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["classification"] == "finite_positive"
        assert doc["thresholds"] == {"vanish_mag": 1e-6, "diverge_mag": 1e6,
                                     "slope": 0.25, "ratio": 100.0}


def _exact_slope(levels, logs):
    """The least-squares slope of ``logs`` against ``levels``, in exact rationals."""
    x = [Fraction(float(v)) for v in levels]
    y = [Fraction(float(v)) for v in logs]
    k, sx, sy = len(x), sum(x), sum(y)
    return ((k * sum(a * b for a, b in zip(x, y)) - sx * sy)
            / (k * sum(a * a for a in x) - sx * sx))


class TestTailSlope:
    """The fit behind every classification, against its exact rational value."""

    def test_within_1e_13_of_the_exact_least_squares_slope(self):
        # sequences as the limit checks see them: log2 values that trend with
        # the level (slopes up to 3 either way, offsets up to 2**60) plus
        # noise, on 2-23 levels drawn from 0-30, unsorted and with repeats
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(1200):
            k = int(rng.integers(2, 24))
            lv = rng.integers(0, 31, size=k).astype(np.float64)
            if np.unique(lv).size < 2:
                continue
            logs = (rng.uniform(-60.0, 60.0) + rng.uniform(-3.0, 3.0) * lv
                    + rng.normal(0.0, rng.choice([0.01, 0.5, 2.0]), k))
            values = np.exp2(logs)
            exact = _exact_slope(lv, np.log2(values))
            got = variation._tail_slope(lv, values)
            worst = max(worst, float(abs(Fraction(got) - exact) / abs(exact)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("value", [1.0, 0.3, 7.5e-9, 3.1e12])
    def test_flat_sequence_gives_exactly_zero(self, value):
        levels = np.arange(6.0, 21.0)
        assert variation._tail_slope(levels, np.full(levels.size, value)) == 0.0
        # also about a mean that is not a float, and from levels out of order
        assert variation._tail_slope(np.array([0.0, 1.0, 3.0, 1.0]),
                                     np.full(4, value)) == 0.0

    @pytest.mark.parametrize("values", [[1.0, 0.0, -2.0], [np.inf, 4.0, np.nan],
                                        [0.0, 0.0, 0.0]])
    def test_fewer_than_two_positive_finite_points_give_nan(self, values):
        assert math.isnan(variation._tail_slope(np.array([1.0, 2.0, 3.0]),
                                                np.array(values)))

    def test_excluded_points_leave_the_fit_of_the_rest(self):
        got = variation._tail_slope(np.array([1.0, 2.0, 3.0, 4.0]),
                                    np.array([4.0, -1.0, 1.0, np.inf]))
        assert got == -1.0

    def test_one_distinct_level_has_no_slope(self):
        assert math.isnan(variation._tail_slope(np.array([3.0, 3.0]),
                                                np.array([1.0, 2.0])))

    def test_repeated_and_unsorted_levels(self):
        lv = np.array([5.0, 2.0, 5.0, 3.0, 2.0])
        values = np.exp2(np.array([1.0, -0.5, 1.5, 0.25, -0.25]))
        exact = _exact_slope(lv, np.log2(values))
        got = variation._tail_slope(lv, values)
        assert abs(Fraction(got) - exact) <= 1e-15 * abs(exact)
        order = [3, 0, 4, 2, 1]
        assert variation._tail_slope(lv[order], values[order]) == pytest.approx(got,
                                                                               rel=1e-15)


# ---------------------------------------------------------------------------
# One pass down the dyadic pyramid
# ---------------------------------------------------------------------------


def _profile(x, n, kind, p, gamma=None, src=None):
    part = rv.dyadic_partition(n, x.grid_level)
    if kind == "pth":
        return rv.pth_variation(x, part, p)
    if kind == "scaled":
        return rv.scaled_qv(x, part, p, src)
    return rv.classical_scaled_qv(x, part, gamma)


class TestDyadicPyramid:
    @pytest.fixture(scope="class")
    def fbm16(self):
        return rv.fbm_path(0.4, 16, seed=3)

    @pytest.mark.parametrize("q", [1.2, 2.0, 2.5, 4.0])
    def test_terminals_match_fsum_over_block_sums(self, fbm16, q):
        levels = list(range(6, 17))
        got = _level_terminals(fbm16, levels, "scaled", q)
        fine = np.abs(np.diff(fbm16.samples)) ** q
        gamma = (q - 2.0) / q
        for n, value in zip(levels, got):
            w = np.array([math.fsum(b) for b in fine.reshape(1 << n, -1).tolist()])
            dx = np.diff(fbm16.samples[::1 << (16 - n)])
            terms = dx * dx if gamma == 0.0 else w ** gamma * dx * dx
            oracle = math.fsum(terms.tolist())
            assert abs(value - oracle) <= 1e-13 * oracle, (n, value, oracle)

    @pytest.mark.parametrize("kind, p, gamma, src", [
        ("pth", 2.0, None, None),
        ("pth", 2.7, None, None),
        ("scaled", 2.5, None, None),
        ("scaled", 1.7, None, None),
        ("scaled", 1.5, None, rv.PVarSource.linear(0.7)),
        ("scaled", 3.0, None, rv.PVarSource.linear(0.7)),
        ("scaled", 2.0, None, None),
        ("classical_scaled", 2.0, -0.3, None),
        ("classical_scaled", 2.0, 0.0, None),
    ])
    def test_metadata_matches_profile_kernels(self, fbm16, kind, p, gamma, src):
        levels = [12, 4, 9, 16, 4]
        got = _level_metadata(fbm16, levels, kind, p, gamma, src)
        assert [m["level"] for m in got] == levels
        for meta in got:
            want = _profile(fbm16, meta["level"], kind, p, gamma, src).metadata()
            assert meta.keys() == want.keys()
            assert meta == want

    def test_degenerate_block_conventions(self):
        x = rv.takagi_path(0.5, 5)
        dead = rv.PVarSource.analytic(lambda t: np.zeros_like(np.asarray(t)))
        [meta] = _level_metadata(x, [4], "scaled", 1.5, src=dead)
        assert meta["divergent"] and math.isinf(meta["terminal"])
        assert meta["atom_risk"] == 1.0
        [meta] = _level_metadata(x, [4], "scaled", 3.0, src=dead)
        assert meta["terminal"] == 0.0 and not meta["divergent"]
        flat = rv.Path(grid_level=6, samples=np.zeros(65))
        for meta in _level_metadata(flat, [2, 4, 6], "scaled", 1.5):
            assert meta["terminal"] == 0.0 and not meta["divergent"]

    def test_levels_outside_the_grid_are_rejected(self, fbm16):
        with pytest.raises(ResolutionError):
            _level_terminals(fbm16, [6, 17], "pth", 2.0)
        with pytest.raises(ValidationError):
            _level_terminals(fbm16, [-1, 6], "pth", 2.0)
        with pytest.raises(ValidationError, match="p must be"):
            _level_terminals(fbm16, [6], "scaled", 0.0)


class TestProfilesAreThePassBits:
    """A public profile along a dyadic partition is the pass's level, bitwise.

    Grid levels 17 and 18 are two and four tiles of the pass, and their
    levels below L-9 take the finest-level weights the tiles stored; the
    profile's block sums must halve in the same order.
    """

    @pytest.fixture(scope="class", params=[17, 18])
    def path(self, request):
        return rv.fbm_path(0.4, request.param, seed=request.param)

    @pytest.mark.parametrize("kind, p, gamma, src", [
        ("pth", 1.7, None, None),
        ("scaled", 1.2, None, None),
        ("scaled", 1.7, None, None),
        ("scaled", 3.3, None, None),
        ("scaled", 1.7, None, rv.PVarSource.linear(0.7)),
        ("classical_scaled", 2.0, -0.3, None),
    ])
    def test_every_level_has_the_gathered_terms(self, path, kind, p, gamma, src):
        levels = range(path.grid_level + 1)
        for lv in variation._dyadic_levels(path, levels, kind, p, gamma, src,
                                           gather=True):
            prof = _profile(path, lv.n, kind, p, gamma, src)
            assert prof.terms.tobytes() == lv.terms.tobytes(), lv.n
            assert prof.terminal == lv.total, lv.n


@pytest.mark.parametrize("kind, p, gamma, src", [
    ("pth", 3.0, None, None),
    ("scaled", 1.5, None, None),
    ("scaled", 1.5, None, rv.PVarSource.linear(1.0)),
    ("classical_scaled", 2.0, -0.3, None),
])
def test_overflow_is_the_same_unwarned_inf_on_any_partition(kind, p, gamma, src):
    """A dyadic profile (the pass's level) and any other overflow alike.

    Steps of 1e300 overflow every kind's terms (the weights too, below
    p = 2): each profile ends on +inf, is not ``divergent`` (no zero weight
    met a nonzero increment), and numpy warns of nothing.
    """
    x = rv.smooth_perturbation("sine", 1e300, 10)
    other = np.concatenate([[0], np.arange(3, 1 << 10, 7), [1 << 10]])
    for part in (rv.dyadic_partition(4, 10), rv.Partition(level=4, indices=other)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = variation._profile(kind, x, part, p, gamma, src)
        assert prof.terminal == math.inf and not prof.divergent, part.indices.size
        assert np.isinf(prof.terms).any()


# ---------------------------------------------------------------------------
# Takagi-class paths: exact terminals and sign invariance
# ---------------------------------------------------------------------------

_SIGN_RULES = [("plus", None), ("minus", None), ("alternating", None), ("random", 7)]


def _takagi_pth_oracle(H, n, p):
    """Level-n p-th variation of a Takagi-class path, by enumerating signs.

    Hats of level m >= n vanish on the level's points, so a level-n
    increment is ``sum_{m<n} 2**-n * 2**(m*(1-H)) * r_m``, with ``r_m`` the
    sign of level m's coefficient times that of its hat's slope there.  The
    slope's sign is the interval's binary digit m, so as the interval runs
    over the level, ``r`` runs over {+1, -1}**n once, whatever the signs.
    """
    c = [2.0 ** -n * 2.0 ** (m * (1.0 - H)) for m in range(n)]
    return math.fsum(abs(math.fsum(a * r for a, r in zip(c, rs))) ** p
                     for rs in itertools.product((1.0, -1.0), repeat=n))


def _enumerated_pth(slopes, n, p):
    """``sum_r |sum_m 2**-n slopes[m] r_m|**p`` over every r in {+1, -1}**n.

    The oracle of :func:`_takagi_pth_oracle` for any path with one modulus
    per Schauder row (``slopes[m]`` is row m's modulus times its hat's slope
    ``2**(m/2)``), vectorised over the sign vectors: each doubling adds row
    m's increment to every partial sum with both signs, and the ``|.|**p``
    terms are added with ``math.fsum``.  At n = 12 it is bitwise the
    per-vector ``fsum`` oracle for Takagi rows.
    """
    sums = np.zeros(1)
    for m in range(n):
        c = 2.0 ** -n * slopes[m]
        sums = np.concatenate([sums + c, sums - c])
    return math.fsum((np.abs(sums) ** p).tolist())


_TAKAGI_CASES = [(0.3, 1.0 / 0.3), (0.3, 3.0), (0.3, 1.5),
                 (0.7, 1.0 / 0.7), (0.7, 2.0), (0.7, 2.5)]


class TestTakagiExactTerminals:
    LEVELS = range(13)

    @pytest.mark.parametrize("H, p", _TAKAGI_CASES)
    def test_pth_terminals_are_the_sign_enumeration(self, H, p):
        want = [_takagi_pth_oracle(H, n, p) for n in self.LEVELS]
        for signs, seed in _SIGN_RULES:
            x = rv.takagi_path(H, 12, signs=signs, seed=seed)
            got = _level_terminals(x, self.LEVELS, "pth", p)
            npt.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=signs)

    def test_vectorised_enumeration_is_the_per_vector_one(self):
        for H, p in _TAKAGI_CASES:
            slopes = [2.0 ** (m * (1.0 - H)) for m in range(12)]
            assert _enumerated_pth(slopes, 12, p) == _takagi_pth_oracle(H, 12, p)

    @pytest.mark.parametrize("H, p", _TAKAGI_CASES)
    def test_pth_terminals_at_levels_13_to_16_are_the_sign_enumeration(self, H, p):
        # Tolerance 2e-13, three times the measured worst: 6.6e-14 at H 0.7,
        # p 2.5, level 16 (7.2e-15 at H 0.3).  That is the rounding of the
        # path's own midpoint recursion, which grows with n*H; the oracle is
        # the per-vector fsum one bitwise at n = 12 (test above).
        levels = range(13, 17)
        slopes = [2.0 ** (m * (1.0 - H)) for m in range(16)]
        want = [_enumerated_pth(slopes, n, p) for n in levels]
        for signs, seed in _SIGN_RULES:
            x = rv.takagi_path(H, 16, signs=signs, seed=seed)
            got = _level_terminals(x, levels, "pth", p)
            npt.assert_allclose(got, want, rtol=2e-13, atol=0, err_msg=signs)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_counterexample_pth_terminals_are_the_sign_enumeration(self, p):
        # one modulus per row, most rows zero: the enumeration holds as for
        # Takagi rows (a zero row's sign doubles every increment's count).
        # Tolerance 1e-13, as above at n <= 12; measured worst 3.3e-15.
        coeffs = rv.counterexample_coefficients(5)
        x = rv.counterexample_path(5)
        slopes = [float(row[0]) * 2.0 ** (m / 2.0) for m, row in enumerate(coeffs.theta)]
        levels = range(x.grid_level + 1)
        want = [_enumerated_pth(slopes, n, p) for n in levels]
        assert all(len(set(row.tolist())) == 1 for row in coeffs.theta)
        assert want[0] == 0.0 and min(want[1:]) > 0.0
        got = _level_terminals(x, levels, "pth", p)
        npt.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_weighted_terminals_do_not_depend_on_the_signs(self, H):
        # a finest-level weight depends only on its block's own r, so the
        # (weight, increment) pairs of a level are the same for every sign rule
        levels = range(15)

        def terminals(x):
            rows = [_level_terminals(x, levels, "scaled", p, src=src)
                    for p in (1.5, 1.0 / H, 3.0)
                    for src in (None, rv.PVarSource.linear(1.3))]
            return rows + [_level_terminals(x, levels, "classical_scaled", gamma=g)
                           for g in (-0.25, 0.4)]

        want = terminals(rv.takagi_path(H, 14))
        for signs, seed in _SIGN_RULES[1:]:
            got = terminals(rv.takagi_path(H, 14, signs=signs, seed=seed))
            npt.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=signs)


# ---------------------------------------------------------------------------
# The pyramid pass against the allocate-per-step pass it replaced
# ---------------------------------------------------------------------------


def _reference_terms(kind, dx, p, gamma, weights, dt):
    """One level's ``(terms, clamped, divergent)``, a fresh array per step."""
    if kind == "pth":
        if p == 2.0:
            return dx * dx, 0, False
        if p == 1.0:
            return np.abs(dx), 0, False
        return np.abs(dx) ** p, 0, False
    if gamma == 0.0:
        return dx * dx, 0, False
    if kind == "classical_scaled":
        return dt() ** gamma * (dx * dx), 0, False
    w, clamped = weights()
    with np.errstate(divide="ignore"):
        terms = w ** gamma
    with np.errstate(invalid="ignore"):
        terms *= dx
        terms *= dx
    bad = np.isnan(terms)
    if bad.any():
        terms = np.where(bad, 0.0, terms)
    return terms, clamped, bool(np.isinf(terms).any())


def _reference_dyadic_levels(x, levels, kind, p=2.0, gamma=None, src=None):
    """Each distinct level's ``(n, terms, clamped, divergent)``, finest first.

    The pass as it stood before it ran in one scratch array: the grid-level
    ``|dx|**p`` taken whole, each coarser level's weights a new array of
    pairwise sums, and a new array for every level's increments and terms.
    """
    L = x.grid_level
    wanted = sorted({int(n) for n in levels}, reverse=True)
    p, gamma, src = variation._resolve(kind, p, gamma, src)
    w = None
    if kind == "scaled" and gamma != 0.0 and src.mode == "finest_level":
        w, w_level = np.power(np.abs(np.diff(x.samples)), p), L
    out = []
    for n in wanted:
        dx = np.diff(x.samples[::1 << (L - n)])
        while w is not None and w_level > n:
            w, w_level = w[0::2] + w[1::2], w_level - 1
        out.append((n, *_reference_terms(
            kind, dx, p, gamma,
            lambda: (w, 0) if w is not None else src.block_weights(
                x, rv.dyadic_partition(n, L), p),
            lambda: np.float64(2.0 ** -n))))
    return out


def _edge_path():
    """Level 6: flat stretches (zero increments), 1e-300 steps and a fBM part.

    At p = 1.5 a 1e-300 step's ``|dx|**p`` underflows to 0, so its block
    weight is 0 beside a nonzero increment (an infinite term); a flat block
    has zero weight and zero increment (0 * inf, which counts 0).
    """
    s = np.zeros(65)
    s[17:33] = np.arange(1, 17) * 1e-300
    s[33:49] = s[32]
    s[48:] = s[32] + rv.fbm_path(0.4, 4, seed=1).samples
    return rv.Path(grid_level=6, samples=s)


_PYRAMID_CASES = [
    ("pth", 1.0, None, None),
    ("pth", 2.0, None, None),
    ("pth", 2.5, None, None),
    ("scaled", 2.5, None, None),
    ("scaled", 1.0, None, None),
    ("scaled", 1.5, None, None),
    ("scaled", 4.0, None, None),
    ("scaled", 2.0, None, None),
    ("scaled", 3.0, None, "analytic"),
    ("scaled", 1.5, None, "analytic"),
    ("classical_scaled", 2.0, -0.3, None),
    ("classical_scaled", 2.0, 0.0, None),
]


class TestPyramidBitsMatchReference:
    """Every term, clamp count and divergence flag, bitwise, gathered or not.

    Grid levels 15-17 make the grid one tile of the pass's sweep, exactly
    one (2**16 increments) and two; the level sets cover level 0, the grid
    level, unsorted ones with duplicates and gaps, and at level 17 levels
    both fed by the tiles (8 and up) and taken whole below them.
    """

    @pytest.fixture(scope="class", params=[15, 16, 17, "edge"])
    def path(self, request):
        if request.param == "edge":
            return _edge_path()
        return rv.fbm_path(0.4, request.param, seed=request.param)

    @pytest.mark.parametrize("kind, p, gamma, src", _PYRAMID_CASES)
    def test_terms_are_the_reference_bits(self, path, kind, p, gamma, src):
        L = path.grid_level
        if src == "analytic":
            src = rv.PVarSource.linear(0.7)
        level_sets = [[0], [L], [L - 3, 1, L // 2, L, 1, L - 3], [0, 2, L - 1],
                      list(range(max(L - 12, 0), L + 1))]
        for levels in level_sets:
            want = _reference_dyadic_levels(path, levels, kind, p, gamma, src)
            for gather in (True, False):
                got = variation._dyadic_levels(path, levels, kind, p, gamma, src,
                                               gather=gather)
                assert [g.n for g in got] == [w[0] for w in want]
                for lv, (n, rt, rc, rd) in zip(got, want):
                    if gather:
                        assert lv.terms.tobytes() == rt.tobytes(), (levels, n)
                    else:
                        assert lv.terms is None
                    assert lv.total == variation._level_total(rt), (levels, n)
                    assert lv.peak == np.max(rt), (levels, n)
                    assert (lv.clamped, lv.divergent) == (rc, rd), (levels, n)
            profiles = []
            _level_metadata(path, levels, kind, p, gamma, src, write=profiles.append)
            for prof, (n, rt, _, _) in zip(profiles, want):
                assert prof.level == n and prof.terms.tobytes() == rt.tobytes()

    def test_edge_path_has_both_degenerate_blocks(self):
        [(_, terms, _, divergent)] = _reference_dyadic_levels(
            _edge_path(), [3], "scaled", 1.5)
        assert divergent and np.isinf(terms[2]) and terms[4] == 0.0


def _deep_edge_path(L=20):
    """A level-L path whose scaled terms at levels 17-L hold both degenerate kinds.

    Its first 2**10 steps are 1e-300 (``|dx|**p`` underflows to 0 at p < 2,
    so those blocks have zero weight and nonzero increments: infinite
    terms), the rest of the first 2**17 steps are flat (zero weight and
    zero increment: 0 * inf, which counts 0, over whole blocks of the
    pass), and fBM follows.
    """
    s = np.zeros((1 << L) + 1)
    s[:1025] = np.arange(1025) * 1e-300
    s[1025:1 << 17] = s[1024]
    s[1 << 17:] = s[1024] + rv.fbm_path(0.4, L, seed=2).samples[:(1 << L) + 1 - (1 << 17)]
    return rv.Path(grid_level=L, samples=s)


class TestBlockedReductionAtDeepLevels:
    """Each level's record against its terms taken whole, at levels 17-20.

    A level of 2**n terms is reduced 2**16 at a time; its total must be
    ``np.sum`` of the whole level bitwise, so a numpy that sums in another
    pairwise order fails here, as does any change to a term.
    """

    @pytest.fixture(scope="class", params=["fbm", "takagi", "edge"])
    def path(self, request):
        if request.param == "fbm":
            return rv.fbm_path(0.4, 20, seed=11)
        if request.param == "takagi":
            return rv.takagi_path(0.5, 20, signs="random", seed=4)
        return _deep_edge_path()

    @pytest.mark.parametrize("kind, p, gamma, src", _PYRAMID_CASES)
    def test_total_and_atom_risk_are_those_of_the_whole_level(self, path, kind, p,
                                                              gamma, src):
        if src == "analytic":
            src = rv.PVarSource.linear(0.7)
        # the grid level on top (its terms come from the weight sweep) and below
        for levels in ([17, 18, 19, 20], [19, 17]):
            want = _reference_dyadic_levels(path, levels, kind, p, gamma, src)
            got = list(variation._dyadic_levels(path, levels, kind, p, gamma, src))
            assert [lv.n for lv in got] == [w[0] for w in want]
            for lv, (n, terms, clamped, divergent) in zip(got, want):
                total = variation._level_total(terms)
                assert lv.total == total, (
                    f"level {n}: blocked total {lv.total!r} != np.sum {total!r}; "
                    "has numpy's pairwise summation order changed?")
                assert (variation._atom_risk(lv.peak, lv.total)
                        == variation._atom_risk(np.max(terms), total)), n
                assert (lv.clamped, lv.divergent) == (clamped, divergent), n

    def test_edge_path_has_both_degenerate_blocks_at_level_17(self):
        [(_, terms, _, divergent)] = _reference_dyadic_levels(
            _deep_edge_path(), [17], "scaled", 1.5)
        assert divergent and np.isinf(terms[:128]).all()
        assert not terms[128:1 << 14].any() and terms[1 << 14:].all()


class TestPassMemory:
    """Traced allocations of a pass to the grid level, in units of the path's bytes.

    No level's terms or weights are held whole: the pass holds a few arrays
    of one 2**16-increment tile (1/16 each) and the finest-level weights of
    level L-9 (1/512).  Measured: 0.20 for the finest-level and the
    analytic scaled-QV passes, 0.064 for pth and classical; with a cache
    of increments and weights halved in place they were 0.70, 0.125 and
    (analytic, which took each level's weights whole) 5.13.
    """

    @pytest.fixture(scope="class")
    def fbm20(self):
        return rv.fbm_path(0.4, 20, seed=1)

    @pytest.mark.parametrize("kind, p, gamma, src", [
        ("scaled", 2.5, None, None),
        ("scaled", 3.0, None, rv.PVarSource.linear(0.7)),
        ("pth", 2.5, None, None),
        ("classical_scaled", 2.0, -0.3, None),
    ], ids=["finest", "analytic", "pth", "classical"])
    def test_traced_peak_of_a_full_grid_pass(self, fbm20, kind, p, gamma, src):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _level_terminals(fbm20, range(6, 21), kind, p, gamma, src)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * fbm20.samples.nbytes, peak / fbm20.samples.nbytes

    def test_traced_peak_of_a_public_dyadic_profile(self, fbm20):
        # the level-10 profile is the pass's level: its 2**10 terms and the
        # tiles.  Measured 0.16; 1.75 when its weights were the grid's
        # |dx|**p taken whole and halved down to the level.
        part = rv.dyadic_partition(10, 20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rv.scaled_qv(fbm20, part, 2.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * fbm20.samples.nbytes, peak / fbm20.samples.nbytes


# ---------------------------------------------------------------------------


class TestProfileSerialization:
    def test_round_trip_preserves_values_and_metadata(self, tmp_path):
        x = rv.takagi_path(0.5, 8)
        prof = rv.scaled_qv(x, rv.dyadic_partition(6, 8), 2.5)
        name = tmp_path / "prof.csv"
        rv.write_profile_csv(prof, name)
        assert (tmp_path / "prof.meta.json").exists()
        back = rv.read_profile_csv(name)
        npt.assert_array_equal(back.values, prof.values)
        assert back.level == 6 and back.p == 2.5 and back.kind == "scaled"
        assert back.src_mode == "finest_level"
        npt.assert_allclose(back.terminal, prof.terminal, rtol=0)

    def test_explicit_sidecar_location(self, tmp_path):
        x = rv.takagi_path(0.5, 6)
        prof = rv.pth_variation(x, rv.dyadic_partition(4, 6), 2.0)
        rv.write_profile_csv(prof, tmp_path / "p.csv", tmp_path / "meta.json")
        back = rv.read_profile_csv(tmp_path / "p.csv", tmp_path / "meta.json")
        assert back.p == 2.0

    def test_garbage_csv_is_format_error(self, tmp_path):
        (tmp_path / "bad.csv").write_text("t,value\nx,y\n")
        (tmp_path / "bad.meta.json").write_text("{}")
        with pytest.raises(FormatError):
            rv.read_profile_csv(tmp_path / "bad.csv")

    def test_header_only_csv_is_format_error(self, tmp_path):
        x = rv.takagi_path(0.5, 4)
        rv.write_profile_csv(rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0),
                             tmp_path / "p.csv")
        (tmp_path / "p.csv").write_text("t,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="has no data rows"):
                rv.read_profile_csv(tmp_path / "p.csv")

    def test_sidecar_missing_key_is_format_error(self, tmp_path):
        x = rv.takagi_path(0.5, 4)
        prof = rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0)
        rv.write_profile_csv(prof, tmp_path / "p.csv")
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        del meta["level"]
        (tmp_path / "p.meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="level"):
            rv.read_profile_csv(tmp_path / "p.csv")

    @pytest.mark.parametrize("rows", [
        "0,0\n0.7,1\n0.2,3\n", "0,0\n0.5,1\n0.75,3\n", "0.25,0\n0.5,1\n1,3\n",
        "0,0\n0.5,1\n0.5,2\n1,3\n", "0,0\n0.5,1\n1,4\n",
    ], ids=["falls_back", "stops_short_of_1", "starts_after_0", "repeats_a_time",
            "ends_off_the_terminal"])
    def test_times_off_the_unit_interval_or_terminal_mismatch(self, rows, tmp_path):
        x = rv.takagi_path(0.5, 4)
        rv.write_profile_csv(rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0),
                             tmp_path / "p.csv")
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        meta["terminal"] = 3.0
        (tmp_path / "p.meta.json").write_text(json.dumps(meta))
        (tmp_path / "p.csv").write_text("t,value\n0,0\n0.5,1\n1,3\n")
        assert rv.read_profile_csv(tmp_path / "p.csv").terminal == 3.0
        (tmp_path / "p.csv").write_text("t,value\n" + rows)
        with pytest.raises(FormatError):
            rv.read_profile_csv(tmp_path / "p.csv")

    @staticmethod
    def _with_sidecar(tmp_path, **fields):
        """A level-4 pth profile's files, its sidecar updated by ``fields`` (``...`` deletes)."""
        x = rv.takagi_path(0.5, 4)
        rv.write_profile_csv(rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0),
                             tmp_path / "p.csv")
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        meta.update(fields)
        for key in [key for key, value in fields.items() if value is ...]:
            del meta[key]
        (tmp_path / "p.meta.json").write_text(json.dumps(meta))
        return tmp_path / "p.csv"

    @pytest.mark.parametrize("key, value", [
        ("divergent", "false"), ("divergent", 0), ("divergent", None),
        ("level", 3.7), ("level", -2), ("level", True), ("level", "4"),
        ("clamped", -1), ("clamped", 2.0), ("clamped", False),
        ("p", True), ("p", -1.0), ("p", 0), ("p", math.inf), ("p", math.nan), ("p", "2"),
        ("kind", 5), ("kind", "quartic"), ("kind", ["pth"]),
        ("gamma", "abc"), ("gamma", math.nan), ("gamma", -math.inf), ("gamma", False),
        ("source_mode", "psychic"), ("source_mode", "self_level"), ("source_mode", 1),
        ("terminal", True), ("terminal", "1.0"),
    ])
    def test_sidecar_field_of_the_wrong_type_or_range_is_format_error(self, key, value,
                                                                      tmp_path):
        # each of these once read as something else: "false" as True, 3.7 as
        # level 3, true as p = 1.0; or was kept as given
        name = self._with_sidecar(tmp_path, **{key: value})
        with pytest.raises(FormatError, match=f"sidecar {key} must be ") as exc:
            rv.read_profile_csv(name)
        assert str(exc.value).endswith(f", got {value!r}")

    def test_sidecar_integers_and_missing_optional_fields_read(self, tmp_path):
        name = self._with_sidecar(tmp_path, p=2, gamma=..., source_mode=...,
                                  clamped=..., divergent=...)
        back = rv.read_profile_csv(name)
        assert back.p == 2.0 and type(back.p) is float
        assert (back.gamma, back.src_mode, back.clamped, back.divergent) == (None, None, 0,
                                                                             False)
        name = self._with_sidecar(tmp_path, kind="scaled", p=1, gamma=-1,
                                  source_mode="analytic", clamped=3)
        back = rv.read_profile_csv(name)
        assert (back.gamma, back.src_mode, back.clamped, back.divergent) == (
            -1, "analytic", 3, False)

    @pytest.mark.parametrize("fields, clash", [
        ({"gamma": 0.5}, "a pth profile has no gamma"),
        ({"source_mode": "analytic"}, "a scaled profile, and no other, has a source_mode"),
        ({"source_mode": "finest_level"}, "a scaled profile, and no other, has a source_mode"),
        ({"clamped": 7}, "only a scaled profile clamps or diverges"),
        ({"divergent": True}, "only a scaled profile clamps or diverges"),
        ({"gamma": 0.5, "source_mode": "analytic", "divergent": True, "clamped": 7},
         "a pth profile has no gamma"),
        ({"kind": "classical_scaled", "gamma": 0.5, "p": 2.5},
         "a classical_scaled profile has p 2 and a gamma"),
        ({"kind": "classical_scaled", "gamma": ...},
         "a classical_scaled profile has p 2 and a gamma"),
        ({"kind": "classical_scaled", "gamma": 0.5, "source_mode": "finest_level"},
         "a scaled profile, and no other, has a source_mode"),
        ({"kind": "classical_scaled", "gamma": 0.5, "clamped": 1},
         "only a scaled profile clamps or diverges"),
        ({"kind": "scaled", "gamma": 0.5, "source_mode": "finest_level"},
         "a scaled profile has gamma (p - 2)/p"),
        ({"kind": "scaled", "gamma": 0.0}, "a scaled profile, and no other, has a source_mode"),
        ({"kind": "scaled", "gamma": 0.0, "source_mode": "analytic", "divergent": True},
         "a divergent profile has terminal inf"),
    ])
    def test_sidecar_fields_that_clash_are_format_error(self, fields, clash, tmp_path):
        # each field is valid alone; write_profile_csv never writes them together
        name = self._with_sidecar(tmp_path, **fields)
        with pytest.raises(FormatError, match=re.escape(f"sidecar fields clash: {clash}")):
            rv.read_profile_csv(name)

    @pytest.mark.parametrize("make", [
        lambda x, part: rv.pth_variation(x, part, 2.5),
        lambda x, part: rv.scaled_qv(x, part, 2.5),
        lambda x, part: rv.scaled_qv(x, part, 2.0, rv.PVarSource.linear(2.0)),
        lambda x, part: rv.classical_scaled_qv(x, part, 0.5),
        # a block of zero weight beside a nonzero increment at p < 2 diverges
        lambda x, part: rv.scaled_qv(x, part, 1.5, rv.PVarSource.analytic(
            lambda t: np.maximum(np.asarray(t, dtype=np.float64) - 0.5, 0.0))),
        # a staircase whose dips are clamped
        lambda x, part: rv.scaled_qv(x, part, 3.0, rv.PVarSource.analytic(
            lambda t: t - 2.5e-10 * (np.floor(32.0 * np.asarray(t)) % 2.0))),
    ], ids=["pth", "scaled", "scaled-linear", "classical", "divergent", "clamped"])
    def test_every_kind_reads_back(self, make, tmp_path):
        prof = make(rv.takagi_path(0.5, 6), rv.dyadic_partition(5, 6))
        rv.write_profile_csv(prof, tmp_path / "p.csv")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "invalid value", RuntimeWarning)  # inf - inf
            back = rv.read_profile_csv(tmp_path / "p.csv")
        # atom_risk is taken again from the values' differences
        assert {**back.metadata(), "atom_risk": None} == {**prof.metadata(), "atom_risk": None}
        npt.assert_array_equal(back.values, prof.values)

    def test_missing_sidecar_is_format_error(self, tmp_path):
        x = rv.takagi_path(0.5, 4)
        prof = rv.pth_variation(x, rv.dyadic_partition(4, 4), 2.0)
        rv.write_profile_csv(prof, tmp_path / "p.csv")
        (tmp_path / "p.meta.json").unlink()
        with pytest.raises(FormatError):
            rv.read_profile_csv(tmp_path / "p.csv")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.floats(min_value=0.5, max_value=5.0),
       level=st.integers(2, 6))
def test_profile_terminal_is_sum_of_terms(seed, p, level):
    rng = np.random.default_rng(seed)
    x = rv.Path(grid_level=6, samples=rng.standard_normal(65))
    prof = rv.pth_variation(x, rv.dyadic_partition(level, 6), p)
    npt.assert_allclose(prof.terminal, math.fsum(prof.terms.tolist()), rtol=1e-13)
    assert np.all(np.diff(prof.values) >= 0.0)
