"""Random-number-generator plumbing.

Every stochastic entry point in :mod:`repro` accepts an ``rng`` argument that
may be ``None`` (fresh entropy), an integer seed, or an existing
:class:`numpy.random.Generator`.  :func:`as_generator` normalises all three
into a Generator so downstream code never touches the legacy ``RandomState``
API, and :func:`spawn_generators` produces statistically independent child
generators for worker processes (used by the parallel window pipeline).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["RNGLike", "as_generator", "spawn_generators"]

RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(rng: RNGLike = None) -> np.random.Generator:
    """Coerce *rng* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (use fresh OS entropy), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing Generator
        (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(
        "rng must be None, an int seed, a numpy SeedSequence, or a numpy Generator; "
        f"got {type(rng).__name__}"
    )


def spawn_generators(rng: RNGLike, count: int) -> Sequence[np.random.Generator]:
    """Create *count* independent child generators derived from *rng*.

    The children are derived through NumPy's ``SeedSequence.spawn`` machinery
    so that streams do not overlap even when many workers draw heavily.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gen = as_generator(rng)
    seeds = gen.bit_generator.seed_seq.spawn(count)  # type: ignore[union-attr]
    return [np.random.default_rng(s) for s in seeds]
