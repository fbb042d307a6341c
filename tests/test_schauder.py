"""Faber-Schauder expansion tests.

The normalization is pinned two independent ways: the O(N) midpoint
recursion must agree with the naive tent-by-tent summation, and the level-n
quadratic variation of any evaluated path must equal the coefficient-side
closed form 2**-n * sum of squared rows below n.
"""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

import roughvar as rv
from roughvar.errors import FormatError, ResolutionError, ValidationError


def _schauder_eval_direct(c, grid_level):
    """Naive tent-by-tent summation, O(max_level * 2**grid_level): the oracle
    for the midpoint recursion in :func:`roughvar.schauder_eval`."""
    if grid_level < c.max_level:
        raise ResolutionError(f"grid level {grid_level} cannot resolve level "
                              f"{c.max_level - 1}")
    t = rv.grid_times(grid_level)
    x = np.zeros_like(t)
    for m in range(c.max_level):
        scale = 2.0 ** (-m / 2.0)
        for k in range(1 << m):
            u = (1 << m) * t - k
            x += c.theta[m][k] * scale * np.maximum(0.0, np.minimum(u, 1.0 - u))
    return rv.Path(grid_level=grid_level, samples=x, label=c.label)


def _random_coefficients(max_level, seed):
    rng = np.random.default_rng(seed)
    theta = tuple(rng.standard_normal(1 << m) for m in range(max_level))
    return rv.SchauderCoefficients(max_level=max_level, theta=theta)


class TestSchauderCoefficients:
    def test_row_shapes_enforced(self):
        with pytest.raises(ValidationError, match="row 1"):
            rv.SchauderCoefficients(max_level=2, theta=([0.0], [1.0]))

    def test_level_count_enforced(self):
        with pytest.raises(ValidationError):
            rv.SchauderCoefficients(max_level=3, theta=([0.0], [1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            rv.SchauderCoefficients(max_level=1, theta=([np.inf],))

    def test_squared_row_sums(self):
        c = rv.SchauderCoefficients(max_level=2, theta=([2.0], [1.0, 3.0]))
        npt.assert_allclose(c.squared_row_sums(), [4.0, 10.0])


class TestEvaluation:
    def test_single_tent_hits_its_peak(self):
        c = rv.SchauderCoefficients(max_level=1, theta=([1.0],))
        x = rv.schauder_eval(c, 3)
        assert x.samples[0] == 0.0 and x.samples[-1] == 0.0
        assert x.samples[4] == 0.5          # peak value 2**(-0/2) / 2

    def test_recursion_matches_naive_tent_sum(self):
        for seed in range(4):
            c = _random_coefficients(6, seed)
            fast = rv.schauder_eval(c, 8)
            slow = _schauder_eval_direct(c, 8)
            npt.assert_allclose(fast.samples, slow.samples, rtol=0, atol=1e-12)

    def test_blocked_recursion_is_the_whole_row_bits(self):
        """Midpoints written in 2**16 blocks match whole-row updates bitwise."""
        for max_level, grid_level in ((17, 17), (17, 18), (4, 18)):
            c = _random_coefficients(max_level, max_level)
            x = np.zeros((1 << grid_level) + 1)
            for m in range(grid_level):
                stride = 1 << (grid_level - m)
                mid = 0.5 * (x[0:-1:stride] + x[stride::stride])
                if m < max_level:
                    mid = mid + c.theta[m] * (2.0 ** (-m / 2.0) * 0.5)
                x[stride >> 1::stride] = mid
            assert rv.schauder_eval(c, grid_level).samples.tobytes() == x.tobytes()

    def test_grid_must_resolve_all_levels(self):
        c = _random_coefficients(5, 0)
        with pytest.raises(ResolutionError):
            rv.schauder_eval(c, 4)
        with pytest.raises(ResolutionError):
            _schauder_eval_direct(c, 4)

    def test_dyadic_endpoints_stay_zero(self):
        x = rv.schauder_eval(_random_coefficients(5, 1), 7)
        assert x.samples[0] == 0.0 and x.samples[-1] == 0.0


class TestQuadraticVariationIdentity:
    """Level-n QV of the path == 2**-n * sum of squared coefficient rows."""

    def test_random_coefficients(self):
        for seed in range(3):
            c = _random_coefficients(6, seed)
            x = rv.schauder_eval(c, 10)
            for n in range(1, 9):
                dx = np.diff(x.samples[:: 1 << (10 - n)])
                got = float(np.sum(dx * dx))
                want = rv.level_qv_identity(c, n)
                npt.assert_allclose(got, want, rtol=1e-12)

    def test_identity_truncates_at_max_level(self):
        c = rv.SchauderCoefficients(max_level=1, theta=([2.0],))
        # rows above max_level contribute nothing
        assert rv.level_qv_identity(c, 5) == 2.0 ** -5 * 4.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            rv.level_qv_identity(_random_coefficients(2, 0), -1)


class TestTakagiCoefficients:
    def test_plus_signs_scale_by_level(self):
        c = rv.takagi_coefficients(0.3, 4)
        for m, row in enumerate(c.theta):
            npt.assert_allclose(row, 2.0 ** (m * 0.2))

    def test_h_half_gives_unit_coefficients(self):
        c = rv.takagi_coefficients(0.5, 5)
        for row in c.theta:
            npt.assert_array_equal(row, np.ones_like(row))

    def test_alternating_signs(self):
        c = rv.takagi_coefficients(0.5, 3, signs="alternating")
        npt.assert_array_equal(c.theta[1], [-1.0, 1.0])

    def test_minus_signs(self):
        c = rv.takagi_coefficients(0.5, 2, signs="minus")
        assert np.all(c.theta[0] == -1.0)

    def test_random_signs_are_seed_deterministic(self):
        a = rv.takagi_coefficients(0.5, 6, signs="random", seed=11)
        b = rv.takagi_coefficients(0.5, 6, signs="random", seed=11)
        for ra, rb in zip(a.theta, b.theta):
            npt.assert_array_equal(ra, rb)
        assert set(np.unique(np.concatenate(a.theta[2:]))) <= {-1.0, 1.0}

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 70])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 16, 17, 18])
    def test_random_signs_are_the_shake128_bits(self, m, seed):
        """Row m's signs are the first 2**m bits of one SHAKE-128 digest, LSB first.

        Decoded here bit by bit in plain Python, independently of
        ``np.unpackbits``, and compared bitwise with the row at H = 1/2, where
        the level factor is 1.
        """
        xof = hashlib.shake_128(b"roughvar-takagi-signs:%d:%d" % (seed, m))
        data = xof.digest(((1 << m) + 7) // 8)
        want = [1.0 if data[k // 8] >> (k % 8) & 1 else -1.0 for k in range(1 << m)]
        got = rv.takagi_coefficients(0.5, m + 1, signs="random", seed=seed).theta[m]
        assert got.tobytes() == np.array(want).tobytes()

    def test_random_rows_differ_by_seed_and_level(self):
        a = rv.takagi_coefficients(0.5, 12, signs="random", seed=0)
        b = rv.takagi_coefficients(0.5, 12, signs="random", seed=1)
        assert not np.array_equal(a.theta[11], b.theta[11])
        # rows of one seed are not prefixes of each other
        assert not np.array_equal(a.theta[11][:1 << 10], a.theta[10])

    def test_random_signs_are_fair(self):
        """A 2**20 row's count of +1 lies within 5 sigma (5 * 2**9) of 2**19."""
        row = rv.takagi_coefficients(0.5, 21, signs="random", seed=4).theta[20]
        assert abs(int(np.count_nonzero(row > 0)) - (1 << 19)) <= 5 * (1 << 9)

    def test_unknown_sign_rule_rejected(self):
        with pytest.raises(ValidationError, match="sign"):
            rv.takagi_coefficients(0.5, 3, signs="sometimes")

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            rv.takagi_coefficients(1.0, 3)

    def test_takagi_qv_closed_form(self):
        """H=1/2 quadratic variation at level n is 1 - 2**-n."""
        x = rv.takagi_path(0.5, 12)
        for n in (3, 8, 12):
            dx = np.diff(x.samples[:: 1 << (12 - n)])
            npt.assert_allclose(np.sum(dx * dx), 1.0 - 2.0 ** -n, rtol=1e-12)


class TestCounterexampleCoefficients:
    def test_burst_levels_are_triangular_minus_one(self):
        assert rv.counterexample_burst_levels(5) == [0, 2, 5, 9, 14]

    def test_burst_magnitudes(self):
        c = rv.counterexample_coefficients(3)
        assert c.max_level == 6
        for n, m in [(1, 0), (2, 2), (3, 5)]:
            want = math.sqrt(2.0 * n - (n - 1) / 2.0 ** (n - 1))
            npt.assert_allclose(c.theta[m], want)
        assert np.all(c.theta[1] == 0.0) and np.all(c.theta[3] == 0.0)

    def test_qv_at_burst_tops_is_integer(self):
        c = rv.counterexample_coefficients(4)
        for n in range(1, 5):
            s_n = n * (n + 1) // 2
            npt.assert_allclose(rv.level_qv_identity(c, s_n), float(n), rtol=1e-12)

    def test_nmax_must_be_positive(self):
        with pytest.raises(ValidationError):
            rv.counterexample_coefficients(0)


class TestLevelCap:
    def test_deep_grid_is_refused_before_allocating(self):
        with pytest.raises(ValidationError, match="memory guard"):
            rv.schauder_eval(rv.takagi_coefficients(0.5, 4), 40)

    def test_coefficient_levels_are_capped(self, monkeypatch):
        # a lowered cap stands in for the deep rows that exhaust memory
        monkeypatch.setattr(rv.grid, "_MAX_LEVEL", 10)
        with pytest.raises(ValidationError, match="memory guard"):
            rv.takagi_coefficients(0.5, 11)
        with pytest.raises(ValidationError, match="memory guard"):
            rv.counterexample_coefficients(5)  # S_5 = 15
        assert rv.counterexample_coefficients(4).max_level == 10


class TestCoefficientSerialization:
    def test_json_round_trip(self, tmp_path):
        c = _random_coefficients(5, 9)
        name = tmp_path / "c.json"
        rv.write_coefficients_json(c, name)
        back = rv.read_coefficients_json(name)
        assert back.max_level == c.max_level
        for ra, rb in zip(back.theta, c.theta):
            npt.assert_array_equal(ra, rb)

    def test_garbage_is_format_error(self, tmp_path):
        name = tmp_path / "c.json"
        name.write_text("{\"max_level\": 2}\n")
        with pytest.raises(FormatError):
            rv.read_coefficients_json(name)
