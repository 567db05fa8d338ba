"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.analysis.moments import poisson_moment_rhs
from repro.analysis.pooling import (
    aggregate_pooled,
    log2_bin_index,
    pool_differential_cumulative,
    pool_probability_vector,
)
from repro.core.distributions import (
    DiscretePowerLaw,
    PALUDegreeDistribution,
    ZipfMandelbrotDistribution,
)
from repro.core.palu_fit import solve_lambda_from_ratio
from repro.core.palu_model import PALUParameters, expected_class_fractions, visible_fraction
from repro.core.palu_zm_connection import palu_zm_probability, u_over_c_from_delta
from repro.core.zeta import riemann_zeta, truncated_hurwitz, truncated_zeta
from repro.core.zipf_mandelbrot import zm_probability
from repro.streaming.packet import PacketTrace
from repro.streaming.window import iter_windows

# example counts come from the dev/ci profiles in conftest.py (selected via
# --hypothesis-profile); pinning max_examples here would override the CI
# profile and silently shrink its search
_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

degree_lists = st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=300)
alphas = st.floats(min_value=1.2, max_value=3.5, allow_nan=False)
deltas = st.floats(min_value=-0.95, max_value=3.0, allow_nan=False)
fractions = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestZetaProperties:
    @_SETTINGS
    @given(alpha=st.floats(min_value=1.05, max_value=6.0))
    def test_riemann_zeta_bounds(self, alpha):
        """ζ(α) is finite, > 1, and bounded by 1 + 1/(α-1) + 1 (integral bound)."""
        value = riemann_zeta(alpha)
        assert 1.0 < value
        assert value <= 1.0 + 1.0 / (alpha - 1.0) + 1e-9

    @_SETTINGS
    @given(alpha=st.floats(min_value=0.1, max_value=4.0), dmax=st.integers(min_value=1, max_value=3000))
    def test_truncated_zeta_matches_direct_sum(self, alpha, dmax):
        direct = float(np.sum(np.arange(1, dmax + 1, dtype=float) ** (-alpha)))
        assert truncated_zeta(alpha, dmax) == pytest.approx(direct, rel=1e-9)

    @_SETTINGS
    @given(alpha=alphas, delta=deltas, dmax=st.integers(min_value=2, max_value=2000))
    def test_truncated_hurwitz_positive_and_monotone_in_dmax(self, alpha, delta, dmax):
        small = truncated_hurwitz(alpha, delta, dmax)
        larger = truncated_hurwitz(alpha, delta, dmax + 1)
        assert small > 0
        assert larger > small


class TestHistogramProperties:
    @_SETTINGS
    @given(values=degree_lists)
    def test_histogram_conserves_total(self, values):
        hist = degree_histogram(values)
        assert hist.total == len(values)
        assert hist.probability().sum() == pytest.approx(1.0)

    @_SETTINGS
    @given(values=degree_lists)
    def test_dense_round_trip(self, values):
        hist = degree_histogram(values)
        rebuilt = DegreeHistogram.from_dense(hist.dense_counts())
        np.testing.assert_array_equal(rebuilt.degrees, hist.degrees)
        np.testing.assert_array_equal(rebuilt.counts, hist.counts)

    @_SETTINGS
    @given(values=degree_lists, other=degree_lists)
    def test_merge_total_and_commutativity(self, values, other):
        a, b = degree_histogram(values), degree_histogram(other)
        merged = a.merge(b)
        assert merged.total == a.total + b.total
        swapped = b.merge(a)
        np.testing.assert_array_equal(merged.counts, swapped.counts)


class TestPoolingProperties:
    @_SETTINGS
    @given(values=degree_lists)
    def test_pooling_conserves_probability(self, values):
        pooled = pool_differential_cumulative(degree_histogram(values))
        assert pooled.probability_sum() == pytest.approx(1.0)

    @_SETTINGS
    @given(values=degree_lists)
    def test_first_bin_equals_degree_one_fraction(self, values):
        hist = degree_histogram(values)
        pooled = pool_differential_cumulative(hist)
        assert pooled.values[0] == pytest.approx(hist.fraction_at(1))

    @_SETTINGS
    @given(degrees=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=100))
    def test_bin_index_brackets_degree(self, degrees):
        arr = np.asarray(degrees)
        idx = log2_bin_index(arr)
        upper = 2.0**idx
        lower = 2.0 ** (idx - 1)
        assert np.all(arr <= upper)
        assert np.all((arr > lower) | (arr == 1))

    @_SETTINGS
    @given(values_list=st.lists(degree_lists, min_size=1, max_size=5))
    def test_aggregate_pooled_mean_conserves_probability(self, values_list):
        pooled = [pool_differential_cumulative(degree_histogram(v)) for v in values_list]
        agg = aggregate_pooled(pooled)
        assert agg.probability_sum() == pytest.approx(1.0)
        assert agg.sigma is not None and np.all(agg.sigma >= 0)


class TestDistributionProperties:
    @_SETTINGS
    @given(alpha=alphas, dmax=st.integers(min_value=2, max_value=5000))
    def test_power_law_normalised_and_monotone(self, alpha, dmax):
        dist = DiscretePowerLaw(alpha, dmax)
        pmf = dist.probabilities()
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pmf) <= 1e-15)

    @_SETTINGS
    @given(alpha=alphas, delta=deltas, dmax=st.integers(min_value=2, max_value=5000))
    def test_zm_normalised_and_monotone(self, alpha, delta, dmax):
        pmf = zm_probability(np.arange(1, dmax + 1, dtype=float), alpha, delta)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pmf) <= 1e-15)

    @_SETTINGS
    @given(
        c=st.floats(min_value=0.0, max_value=1.0),
        l=st.floats(min_value=0.0, max_value=1.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        alpha=alphas,
        Lambda=st.floats(min_value=0.0, max_value=8.0),
        form=st.sampled_from(["stirling", "poisson"]),
    )
    def test_palu_distribution_valid_whenever_some_weight(self, c, l, u, alpha, Lambda, form):
        if c + l + u <= 0:
            with pytest.raises(ValueError):
                PALUDegreeDistribution(c=c, l=l, u=u, alpha=alpha, Lambda=Lambda, dmax=200, form=form)
            return
        dist = PALUDegreeDistribution(c=c, l=l, u=u, alpha=alpha, Lambda=Lambda, dmax=200, form=form)
        pmf = dist.probabilities()
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    @_SETTINGS
    @given(alpha=alphas, delta=deltas, dmax=st.integers(min_value=10, max_value=2000))
    def test_zm_sampling_stays_in_support(self, alpha, delta, dmax):
        dist = ZipfMandelbrotDistribution(alpha, delta, dmax)
        sample = dist.sample(500, rng=0)
        assert sample.min() >= 1 and sample.max() <= dmax


class TestPALUModelProperties:
    @_SETTINGS
    @given(
        cw=st.floats(min_value=0.05, max_value=1.0),
        lw=st.floats(min_value=0.0, max_value=1.0),
        uw=st.floats(min_value=0.0, max_value=1.0),
        lam=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(min_value=1.5, max_value=3.0),
        p=fractions,
    )
    def test_constraint_and_fractions(self, cw, lw, uw, lam, alpha, p):
        try:
            params = PALUParameters.from_weights(cw, lw, uw, lam=lam, alpha=alpha)
        except ValueError:
            # an unattached share unreachable for this λ is rejected up front
            assume(False)
        assert params.constraint_value() == pytest.approx(1.0, abs=1e-6)
        fr = expected_class_fractions(params, p)
        assert fr["core"] + fr["leaves"] + fr["unattached"] == pytest.approx(1.0)
        assert all(v >= -1e-12 for v in fr.values())
        assert 0.0 < visible_fraction(params, p) <= 1.5

    @_SETTINGS
    @given(
        lam=st.floats(min_value=0.0, max_value=10.0),
        p1=st.floats(min_value=0.01, max_value=0.5),
        p2=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_visible_fraction_monotone_in_p(self, lam, p1, p2):
        try:
            params = PALUParameters.from_weights(0.5, 0.2, 0.3, lam=lam, alpha=2.0)
        except ValueError:
            assume(False)
        assert visible_fraction(params, p1) <= visible_fraction(params, p2) + 1e-12


class TestMomentAndConnectionProperties:
    @_SETTINGS
    @given(m=st.floats(min_value=0.0, max_value=60.0))
    def test_moment_rhs_round_trip(self, m):
        rhs = poisson_moment_rhs(m)
        assert solve_lambda_from_ratio(rhs, m_max=100.0) == pytest.approx(m, abs=1e-4, rel=1e-4)

    @_SETTINGS
    @given(alpha=alphas, delta=deltas.filter(lambda d: abs(d) > 1e-6))
    def test_u_over_c_sign_matches_delta_sign(self, alpha, delta):
        value = u_over_c_from_delta(alpha, delta)
        if delta < 0:
            assert value > 0
        else:
            assert value < 0

    @_SETTINGS
    @given(alpha=alphas, delta=st.floats(min_value=-0.9, max_value=0.0), r=st.floats(min_value=1.01, max_value=100.0))
    def test_equation_five_is_a_distribution(self, alpha, delta, r):
        pmf = palu_zm_probability(2000, alpha, delta, r)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)


class TestWindowingProperties:
    @_SETTINGS
    @given(
        n_packets=st.integers(min_value=1, max_value=2000),
        n_valid=st.integers(min_value=1, max_value=300),
        invalid_every=st.integers(min_value=2, max_value=50),
    )
    def test_every_window_has_exactly_nv_valid_packets(self, n_packets, n_valid, invalid_every):
        valid = np.ones(n_packets, dtype=bool)
        valid[::invalid_every] = False
        trace = PacketTrace.from_arrays(
            np.arange(n_packets) % 11, (np.arange(n_packets) + 3) % 11, valid=valid
        )
        windows = list(iter_windows(trace, n_valid))
        assert len(windows) == trace.n_valid // n_valid
        for w in windows:
            assert w.n_valid == n_valid
        # windows partition a prefix of the trace without overlap
        assert sum(len(w) for w in windows) <= n_packets


class TestProbabilityVectorPooling:
    @_SETTINGS
    @given(weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200))
    def test_pool_probability_vector_conserves_mass(self, weights):
        arr = np.asarray(weights)
        total = arr.sum()
        if total <= 0:
            return
        pooled = pool_probability_vector(arr / total)
        assert pooled.probability_sum() == pytest.approx(1.0)
