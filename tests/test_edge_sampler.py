"""The edge sampler replays ``Generator.choice`` draw for draw.

:class:`~repro.streaming.trace_generator.EdgeSampler` replaces
``gen.choice(m, n, replace=True, p=w)`` in the packet emitter, and every
trace golden depends on the two agreeing bit for bit.  These properties
check the indices (values and dtype) and the generator state left behind,
over weight vectors with zero runs, a single edge, heavy lognormal tails
(σ = 6, where some draws land in buckets crowded with tiny-weight edges
and fall through to the binary search) and ``n`` down to 0 and 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streaming.trace_generator import EdgeSampler


def _normalised(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum()


@st.composite
def _weights(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["single", "zeros", "lognormal6", "uniform", "zipf"]))
    if kind == "single":
        return np.ones(1)
    m = draw(st.integers(1, 3_000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return np.full(m, 1.0 / m)
    if kind == "zipf":
        return _normalised((gen.permutation(m) + 1.0) ** -draw(st.floats(0.5, 3.0)))
    if kind == "lognormal6":
        return _normalised(gen.lognormal(0.0, 6.0, size=m))
    weights = gen.random(m)
    # zero runs at the head, tail and inside
    weights[gen.random(m) < draw(st.floats(0.0, 0.95))] = 0.0
    weights[: draw(st.integers(0, m - 1))] = 0.0
    weights[m - draw(st.integers(0, m - 1)) :] = 0.0
    if not weights.any():
        weights[gen.integers(m)] = 1.0
    return _normalised(weights)


def _state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


@given(
    weights=_weights(),
    sizes=st.lists(st.one_of(st.just(1), st.integers(0, 70_000)), min_size=1, max_size=3),
    seed=st.integers(0, 2**63 - 1),
)
def test_sampler_replays_choice(weights, sizes, seed):
    sampler = EdgeSampler(weights)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in sizes:
        drawn = sampler.draw(ours, n)
        expected = theirs.choice(weights.size, size=n, replace=True, p=weights)
        assert drawn.dtype == expected.dtype
        np.testing.assert_array_equal(drawn, expected)
        assert _state(ours) == _state(theirs)
    assert sampler.n_edges == weights.size


def test_heavy_tail_takes_the_binary_search_fallback():
    # σ = 6 piles almost all of the mass on a few edges: many draws end in
    # buckets crowded with tiny-weight edges, beyond the bounded walk
    gen = np.random.default_rng(5)
    weights = _normalised(gen.lognormal(0.0, 6.0, size=50_000))
    sampler = EdgeSampler(weights)
    ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(4):
        np.testing.assert_array_equal(
            sampler.draw(ours, 65_536), theirs.choice(weights.size, size=65_536, p=weights)
        )
    assert _state(ours) == _state(theirs)


@pytest.mark.parametrize(
    "weights",
    [
        pytest.param([0.5, -0.1, 0.6], id="negative"),
        pytest.param([0.5, 0.6], id="sum-above-1"),
        pytest.param([0.2, 0.2], id="sum-below-1"),
        pytest.param([np.nan, 1.0], id="nan"),
        pytest.param([np.inf, 0.0], id="inf"),
        pytest.param([[0.5, 0.5]], id="two-dimensional"),
        pytest.param([], id="empty"),
    ],
)
def test_invalid_weights_raise_like_choice(weights):
    p = np.asarray(weights, dtype=np.float64)
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(0).choice(p.shape[-1], size=3, p=p)
    with pytest.raises(ValueError) as ours:
        EdgeSampler(p)
    assert str(theirs.value).startswith(str(ours.value))
