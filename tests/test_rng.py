import numpy as np
import pytest

from kdvlab.fitting import bootstrap_weighted_mean
from kdvlab.rng import derive_seed, substream, substreams

SEEDS = (0, 12345, 2**63 + 7, 0xDEADBEEFCAFEBABE)


def fresh(seed: int, index: int) -> np.random.Generator:
    """A Philox built from scratch for one (seed, index) pair: the reference stream."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_draw_what_fresh_generators_draw(seed):
    # odd draw lengths end mid-block, so a stale counter, buffer or half-word shows
    indices = [0, 1, 2, 7, 3, 2**64 - 1, 5]
    for gen, i in zip(substreams(seed, indices), indices):
        assert gen.standard_normal(3).tobytes() == fresh(seed, i).standard_normal(3).tobytes()
    for gen, i in zip(substreams(seed, indices), indices):
        assert np.array_equal(gen.integers(0, 9, size=5), fresh(seed, i).integers(0, 9, size=5))
    for i in indices:
        assert substream(seed, i).random(5).tobytes() == fresh(seed, i).random(5).tobytes()


def test_interleaved_substreams_match_sequential_ones():
    # each call owns its Philox: two live iterators (two threads, say) never share one
    seq_a = [g.standard_normal(6) for g in substreams(11, range(8))]
    seq_b = [g.standard_normal(6) for g in substreams(12, range(8))]
    for a, b, gen_a, gen_b in zip(seq_a, seq_b, substreams(11, range(8)), substreams(12, range(8))):
        first_a, first_b = gen_a.standard_normal(3), gen_b.standard_normal(3)
        assert np.concatenate([first_a, gen_a.standard_normal(3)]).tobytes() == a.tobytes()
        assert np.concatenate([first_b, gen_b.standard_normal(3)]).tobytes() == b.tobytes()


def test_bootstrap_replicates_match_the_per_substream_reference():
    n, n_replicas, seed = 37, 25, 9
    values = np.linspace(-1.0, 2.0, n)
    weights = np.linspace(0.0, 1.0, n) ** 2
    boot = bootstrap_weighted_mean(values, weights, n_replicas, seed)
    base = derive_seed(seed, 0xB007)
    expect = []
    for r in range(n_replicas):
        idx = fresh(base, r).integers(0, n, size=n)
        w = weights[idx]
        expect.append(np.sum(w * values[idx]) / w.sum())
    assert boot.replicates.tobytes() == np.array(expect).tobytes()
