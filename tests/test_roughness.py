"""Critical-index classification and secant search tests."""

import json

import numpy as np
import pytest

import roughvar as rv
from roughvar.errors import (BracketError, InconclusiveError, NumericalError,
                             ValidationError)
from roughvar.roughness import _check_monotone, _secant_root
from roughvar.variation import _level_terminals

LEVELS = range(6, 13)


@pytest.fixture(scope="module")
def takagi14():
    return rv.takagi_path(0.5, 14)


class TestClassifyIndex:
    def test_takagi_switching_behaviour(self, takagi14):
        assert rv.classify_index(takagi14, LEVELS, 1.5) == "diverging"
        assert rv.classify_index(takagi14, LEVELS, 2.0) == "finite_positive"
        assert rv.classify_index(takagi14, LEVELS, 3.0) == "vanishing"

    def test_nonpositive_exponent_rejected(self, takagi14):
        with pytest.raises(ValidationError, match="q must be > 0"):
            rv.classify_index(takagi14, LEVELS, 0.0)
        for q in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                rv.classify_index(takagi14, LEVELS, q)

    def test_too_few_levels_rejected(self, takagi14):
        with pytest.raises(ValidationError, match="at least 3"):
            rv.classify_index(takagi14, [6, 7], 2.0)

    def test_out_of_range_levels_rejected(self, takagi14):
        with pytest.raises(ValidationError, match="lie in"):
            rv.classify_index(takagi14, [0, 7, 20], 2.0)


class TestDefaultLevels:
    def test_holds_back_top_two_levels(self):
        x = rv.takagi_path(0.5, 12)
        assert list(rv.default_levels(x)) == [6, 7, 8, 9, 10]


class TestClassificationSweep:
    def test_records_sorted_and_rank_monotone(self, takagi14):
        qs = np.linspace(1.2, 4.0, 9)
        records = rv.classification_sweep(takagi14, LEVELS, qs)
        assert [rec.q for rec in records] == sorted(rec.q for rec in records)
        rank = {"diverging": 0, "finite_positive": 1, "vanishing": 2}
        ranks = [rank[rec.classification] for rec in records]
        assert ranks == sorted(ranks)
        assert ranks[0] == 0 and ranks[-1] == 2

    def test_shuffled_input_order_does_not_matter(self, takagi14):
        a = rv.classification_sweep(takagi14, LEVELS, [1.5, 2.0, 3.0])
        b = rv.classification_sweep(takagi14, LEVELS, [3.0, 1.5, 2.0])
        assert a == b

    def test_probe_record_serializes(self, takagi14):
        rec = rv.classification_sweep(takagi14, LEVELS, [2.0])[0]
        doc = json.loads(json.dumps(rec.to_dict()))
        assert doc["q"] == 2.0
        assert doc["classification"] == "finite_positive"
        assert len(doc["terminal_values"]) == len(list(LEVELS))


class TestCriticalIndexSearch:
    def test_takagi_estimate_and_bracket(self, takagi14):
        rep = rv.critical_index_search(takagi14, p_range=(1.2, 4.0), iters=12)
        assert abs(rep.p_bar_est - 2.0) <= 0.01
        assert abs(rep.hurst_est - 0.5) <= 0.003
        lo, hi = rep.bracket
        assert lo <= rep.p_bar_est <= hi
        np.testing.assert_allclose(hi - lo, 2.8 * 2.0 ** -12, rtol=1e-9)
        assert rep.iters == 12
        assert rep.src_mode == "finest_level"
        assert rep.levels_used == tuple(range(6, 13))

    def test_endpoints_are_recorded_and_sorted(self, takagi14):
        rep = rv.critical_index_search(takagi14, iters=5)
        qs = [rec.q for rec in rep.per_q]
        assert qs == sorted(qs)
        assert qs[0] == 1.2 and qs[-1] == 4.0
        assert rep.per_q[0].classification == "diverging"
        assert rep.per_q[-1].classification == "vanishing"
        assert len(rep.per_q) <= 5 + 2

    def test_search_is_deterministic(self, takagi14):
        a = rv.critical_index_search(takagi14, iters=8)
        b = rv.critical_index_search(takagi14, iters=8)
        assert a.to_dict() == b.to_dict()

    def test_fbm_estimate_matches_generator_roughness(self):
        x = rv.fbm_path(0.3, 18, seed=1)
        rep = rv.critical_index_search(x, levels=range(8, 17),
                                       p_range=(1.5, 6.0), iters=12)
        assert abs(rep.p_bar_est - 1.0 / 0.3) <= 0.15
        assert abs(rep.hurst_est - 0.3) <= 0.015

    def test_source_choice_still_finds_takagi_index(self, takagi14):
        for src in (rv.PVarSource(), rv.PVarSource.linear(1.0)):
            rep = rv.critical_index_search(takagi14, src=src)
            assert abs(rep.p_bar_est - 2.0) <= 0.01
            assert rep.src_mode == src.mode

    def test_report_round_trips_to_json(self, takagi14):
        rep = rv.critical_index_search(takagi14, iters=4)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["p_bar_est"] == rep.p_bar_est
        assert doc["levels_used"] == list(range(6, 13))
        assert len(doc["per_q"]) == len(rep.per_q)

    def test_smooth_path_cannot_be_bracketed(self):
        s = rv.smooth_perturbation("sine", 1.0, 12, {"freq": 1.0})
        with pytest.raises(BracketError) as exc:
            rv.critical_index_search(s, levels=range(6, 11))
        assert len(exc.value.evidence) == 2
        assert {d["classification"] for d in exc.value.evidence} == {"vanishing"}

    def test_oscillating_probe_aborts_the_search(self):
        # levels straddling the burst rows make the quadratic terminals
        # alternate between tiny remainders and integer spikes
        cx = rv.counterexample_path(5)
        with pytest.raises(InconclusiveError) as exc:
            rv.critical_index_search(cx, levels=[0, 5, 6, 9, 10, 14, 15],
                                     iters=6)
        classes = [d["classification"] for d in exc.value.evidence]
        assert "oscillating" in classes
        assert isinstance(exc.value, NumericalError)

    def test_validation_of_search_arguments(self, takagi14):
        with pytest.raises(ValidationError, match="p_min < p_max"):
            rv.critical_index_search(takagi14, p_range=(4.0, 1.2))
        with pytest.raises(ValidationError, match="positive"):
            rv.critical_index_search(takagi14, p_range=(-1.0, 2.0))
        with pytest.raises(ValidationError, match="finite"):
            rv.critical_index_search(takagi14, p_range=(1.2, np.inf))
        with pytest.raises(ValidationError, match="p_min < p_max"):
            rv.critical_index_search(takagi14, p_range=(np.nan, 4.0))
        with pytest.raises(ValidationError, match="iters"):
            rv.critical_index_search(takagi14, iters=0)
        with pytest.raises(ValidationError, match="at least 3"):
            rv.critical_index_search(takagi14, levels=[6, 7])


class TestMonotoneGuard:
    def _rec(self, q, classification):
        return rv.ProbeRecord(q=q, classification=classification,
                              terminal_values=(1.0, 1.0, 1.0), trend_slope=0.0)

    def test_ordered_records_pass(self):
        _check_monotone([self._rec(1.0, "diverging"),
                         self._rec(2.0, "finite_positive"),
                         self._rec(3.0, "vanishing")])

    def test_rank_regression_raises_with_evidence(self):
        records = [self._rec(1.0, "vanishing"), self._rec(2.0, "diverging")]
        with pytest.raises(InconclusiveError, match="not monotone") as exc:
            _check_monotone(records)
        assert [d["q"] for d in exc.value.evidence] == [1.0, 2.0]


class TestRoughnessReportInvariant:
    def test_estimate_outside_bracket_is_rejected(self):
        with pytest.raises(ValidationError, match="outside bracket"):
            rv.RoughnessReport(p_bar_est=5.0, bracket=(1.0, 2.0),
                               hurst_est=0.2, per_q=(),
                               levels_used=(6, 7, 8),
                               src_mode="finest_level", iters=1)


def _reference_bisection(x, levels, p_range, iters):
    """``hurst_est`` of the plain bisection the secant search replaced.

    It makes ``iters + 2`` probes; its estimate is the last finite_positive
    probe, else the final midpoint.
    """
    def probe(q):
        return rv.classification_sweep(x, levels, [q])[0]

    lo, hi = p_range
    assert probe(lo).classification == "diverging"
    assert probe(hi).classification == "vanishing"
    last_fp = None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        rec = probe(mid)
        if rec.classification == "finite_positive":
            last_fp = mid
        if rec.classification == "diverging" or (
                rec.classification == "finite_positive" and rec.trend_slope > 0.0):
            lo = mid
        else:
            hi = mid
    return 1.0 / (last_fp if last_fp is not None else 0.5 * (lo + hi))


class TestSecantSearch:
    # fBM L18, default levels 6..16, seeds 0-7: the secant's hurst_est was
    # within 6.4e-4 of the 14-probe bisection over (1.1, 8.0) (largest at
    # H = 0.7), and made 5-6 probes; the tolerance is about twice that.
    HURST_TOL = 1.5e-3
    SEEDS = range(8)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_matches_reference_bisection_in_few_probes(self, H):
        for seed in self.SEEDS:
            x = rv.fbm_path(H, 18, seed=seed)
            rep = rv.critical_index_search(x)
            ref = _reference_bisection(x, list(rv.default_levels(x)), (1.1, 8.0), 12)
            assert abs(rep.hurst_est - ref) <= self.HURST_TOL, (seed, rep.hurst_est, ref)
            assert len(rep.per_q) <= 7
            lo, hi = rep.bracket
            assert lo <= rep.p_bar_est <= hi

    def test_every_probe_equals_an_uncached_pass_bitwise(self):
        # each probe of a search reads the increments taken once for all
        x = rv.fbm_path(0.4, 16, seed=3)
        levels = list(rv.default_levels(x))
        for src in (None, rv.PVarSource.linear(1.0)):
            rep = rv.critical_index_search(x, src=src)
            assert len(rep.per_q) >= 4
            for rec in rep.per_q:
                assert rec.terminal_values == tuple(
                    _level_terminals(x, levels, "scaled", rec.q, src=src))

    def test_confirmed_root_is_the_estimate(self, takagi14):
        rep = rv.critical_index_search(takagi14, iters=12)
        lo, hi = rep.bracket
        half = 2.8 * 2.0 ** -13
        assert rep.p_bar_est - half == lo and rep.p_bar_est + half == hi
        assert {lo, hi} <= {rec.q for rec in rep.per_q}

    def test_budget_bounds_the_probes(self, takagi14):
        for iters in (1, 2, 3, 12):
            for src in (None, rv.PVarSource.linear(1.0)):
                rep = rv.critical_index_search(takagi14, iters=iters, src=src)
                assert len(rep.per_q) <= iters + 2
                lo, hi = rep.bracket
                assert lo < rep.p_bar_est < hi


class TestSecantRoot:
    def _rec(self, q, slope):
        return rv.ProbeRecord(q=q, classification="finite_positive",
                              terminal_values=(1.0, 1.0, 1.0), trend_slope=slope)

    def test_affine_slope_in_inverse_q_gives_its_zero(self):
        # slope 2/q - 0.8 vanishes at q = 2.5
        a, b = self._rec(1.25, 2 / 1.25 - 0.8), self._rec(5.0, 2 / 5.0 - 0.8)
        assert _secant_root(a, b, 1.25, 5.0) == pytest.approx(2.5, rel=1e-12)

    def test_outside_or_nan_falls_back_to_midpoint(self):
        a, b = self._rec(2.0, 0.5), self._rec(3.0, 0.25)
        assert _secant_root(a, b, 2.0, 3.0) == 2.5
        assert _secant_root(self._rec(2.0, np.nan), b, 2.0, 3.0) == 2.5
        assert _secant_root(a, self._rec(3.0, 0.5), 2.0, 3.0) == 2.5


class TestBracketExtension:
    # the q = 4 endpoint classifies finite_positive on these paths; the
    # estimates below are within 0.03 of H (0.028 at L14)
    HURST_TOL = 0.04

    @pytest.mark.parametrize("H, level, seed", [(0.3, 16, 0), (0.35, 16, 0),
                                                (0.4, 14, 7)])
    def test_high_endpoint_doubles_until_vanishing(self, H, level, seed):
        x = rv.fbm_path(H, level, seed=seed)
        rep = rv.critical_index_search(x)
        assert abs(rep.hurst_est - H) <= self.HURST_TOL
        by_q = {rec.q: rec.classification for rec in rep.per_q}
        assert by_q[1.2] == "diverging"
        assert by_q[4.0] == "finite_positive" and by_q[8.0] == "vanishing"
        assert rep.bracket[1] <= 4.0
        assert len(rep.per_q) <= 12 + 2 + 1

    def test_low_endpoint_halves_until_diverging(self):
        x = rv.fbm_path(0.75, 18, seed=0)
        rep = rv.critical_index_search(x)
        by_q = {rec.q: rec.classification for rec in rep.per_q}
        assert by_q[0.6] == "diverging" and by_q[1.2] == "finite_positive"
        assert abs(rep.hurst_est - 0.75) <= self.HURST_TOL

    def test_extension_stops_at_the_cap_with_every_endpoint_as_evidence(self):
        # H = 0.15 needs q > 16 on this path; q = 64 is reached only from p_max 16
        x = rv.fbm_path(0.15, 18, seed=0)
        with pytest.raises(BracketError) as exc:
            rv.critical_index_search(x)
        assert [d["q"] for d in exc.value.evidence] == [1.2, 4.0, 8.0, 16.0]
        assert exc.value.evidence[-1]["classification"] == "finite_positive"
        rep = rv.critical_index_search(x, p_range=(1.2, 16.0))
        assert abs(rep.hurst_est - 0.15) <= self.HURST_TOL
