"""Unit tests for the seeded random source."""

import copy
import pickle
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.herd.rngpool import DrawPools
from repro.sim.rng import RandomSource, mersenne

from conftest import examples


def test_same_seed_same_stream():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_uniform_respects_bounds():
    rng = RandomSource(7)
    for _ in range(1000):
        value = rng.uniform(3.0, 9.0)
        assert 3.0 <= value <= 9.0


def test_uniform_degenerate_interval():
    rng = RandomSource(7)
    assert rng.uniform(5.0, 5.0) == 5.0


def test_uniform_empty_interval_raises():
    rng = RandomSource(7)
    with pytest.raises(ValueError):
        rng.uniform(9.0, 3.0)


def test_randint_inclusive():
    rng = RandomSource(7)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_choice_and_sample():
    rng = RandomSource(7)
    items = list(range(100))
    assert rng.choice(items) in items
    sample = rng.sample(items, 10)
    assert len(sample) == 10
    assert len(set(sample)) == 10


def test_shuffle_is_permutation():
    rng = RandomSource(7)
    items = list(range(50))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_jitter_stays_within_fraction():
    rng = RandomSource(7)
    for _ in range(500):
        value = rng.jitter(10.0, fraction=0.5)
        assert 5.0 <= value <= 15.0


def test_fork_streams_are_deterministic():
    parent_a = RandomSource(99)
    parent_b = RandomSource(99)
    child_a = parent_a.fork("x")
    child_b = parent_b.fork("x")
    assert [child_a.random() for _ in range(5)] == \
        [child_b.random() for _ in range(5)]


def test_fork_streams_are_independent_of_label():
    parent = RandomSource(99)
    child_x = parent.fork("x")
    parent2 = RandomSource(99)
    child_y = parent2.fork("y")
    assert [child_x.random() for _ in range(5)] != \
        [child_y.random() for _ in range(5)]


def test_fork_is_stable_across_processes():
    """fork() must not depend on PYTHONHASHSEED: this pinned value would
    change between interpreter runs if it did."""
    value = RandomSource(42).fork("alpha").random()
    assert value == pytest.approx(0.412031105086, abs=1e-12)


def test_expovariate_positive():
    rng = RandomSource(7)
    assert all(rng.expovariate(1.0) > 0 for _ in range(100))


# One fork-seed rule for both engines, and generators seeded once in C.

seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(-2**70, 2**70))
labels = st.text(max_size=12)


@settings(max_examples=examples(60))
@given(seed=seeds)
def test_a_seeded_source_is_random_random_of_its_seed(seed):
    """Seeding in C alone gives ``random.Random(seed)``'s generator:
    draws, the Mersenne state and the gauss cache all agree."""
    reference = random.Random(seed)
    for rng in (mersenne(seed), RandomSource(seed)._rng):
        assert rng.getstate() == reference.getstate()
        assert rng.gauss_next is None
    source = RandomSource(seed)
    assert source.seed == seed
    assert [source.random() for _ in range(8)] == \
        [reference.random() for _ in range(8)]


@settings(max_examples=examples(60))
@given(seed=seeds, label=labels)
def test_a_fork_is_random_random_of_its_fork_seed(seed, label):
    """``fork`` draws what ``fork_seed`` draws, and its stream is
    ``random.Random`` of the 64 bits drawn xor the label's crc32."""
    parent = random.Random(seed)
    expected = parent.getrandbits(64) ^ zlib.crc32(label.encode())
    assert RandomSource(seed).fork_seed(label) == expected
    child = RandomSource(seed).fork(label)
    assert child.seed == expected
    reference = random.Random(expected)
    assert [child.random() for _ in range(8)] == \
        [reference.random() for _ in range(8)]


@settings(max_examples=examples(30))
@given(seed=st.integers(0, 2**32 - 1),
       members=st.lists(st.integers(0, 10**6), max_size=12, unique=True))
def test_herd_pool_seeds_are_the_agent_forks(seed, members):
    """The herd's pools take each member's seed, in membership order,
    as the agent engine forks each member's source from the same master,
    and prefill them with that source's first draws."""
    master = RandomSource(seed)
    forks = [master.fork(f"member-{member}") for member in members]
    pools = DrawPools.from_master(RandomSource(seed), members, depth=4)
    assert pools._seeds == [fork.seed for fork in forks]
    for index, fork in enumerate(forks):
        assert [pools.take(index) for _ in range(6)] == \
            [fork.random() for _ in range(6)]  # 4 pooled, then replayed


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, pickle.dumps],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_source_is_never_copied(clone):
    """``random`` is the generator's own bound C method: a copied source
    would keep drawing from the original's generator, so copying and
    pickling are refused outright."""
    source = RandomSource(7)
    with pytest.raises(TypeError):
        clone(source)
    assert source.random() == random.Random(7).random()
