"""Critical-index classification and bisection search tests."""

import json

import numpy as np
import pytest

import roughvar as rv
from roughvar.errors import (BracketError, InconclusiveError, NumericalError,
                             ValidationError)
from roughvar.roughness import _check_monotone

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
        assert len(rep.per_q) == 5 + 2

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
        for src in (rv.PVarSource.self_level(), rv.PVarSource.linear(1.0)):
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

    def test_tightened_ratio_threshold_also_aborts(self):
        cx = rv.counterexample_path(5)
        picky = rv.ClassificationThresholds(ratio=2.0)
        with pytest.raises(InconclusiveError):
            rv.critical_index_search(cx, levels=[5, 6, 9, 10, 14, 15],
                                     iters=6, thresholds=picky)

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
