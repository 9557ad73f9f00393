"""Counter-based random streams with order-independent determinism.

Every consumer of randomness is keyed by (seed, substream index) through a
Philox generator, so draws never depend on execution order or thread count.
Philox is counter-based: its stream is fixed by the key [seed, index] and the
counter alone.  :func:`substreams` therefore builds one Philox per call and
re-keys it in place for each index (counter 0, empty buffer), which yields
exactly the draws of a freshly built generator without paying for a new one
per index.  Derived seeds for auxiliary purposes (perturbations, bootstrap
replicas, null-band pairs) are produced by splitmix64 steps to keep
substreams from colliding.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_MASK = (1 << 64) - 1


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministically mix integer tags into a 64-bit sub-seed."""
    x = seed & _MASK
    for tag in tags:
        x = (x + 0x9E3779B97F4A7C15 + (tag & _MASK)) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = z ^ (z >> 31)
    return x


def substreams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """Generators for the substreams (seed, i), i in ``indices``, in order.

    Each yielded generator draws exactly what a Philox freshly keyed with
    [seed, i] would.  It is one object, re-keyed at every step: finish with
    it before advancing the iterator.  Every call owns its Philox, so
    iterators running in different threads never share state.
    """
    bit_gen = np.random.Philox(key=0)  # re-keyed before every yield
    gen = np.random.Generator(bit_gen)
    key = [seed & _MASK, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        key[1] = index & _MASK
        bit_gen.state = fresh
        yield gen


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, index) pair."""
    return next(substreams(seed, (index,)))
