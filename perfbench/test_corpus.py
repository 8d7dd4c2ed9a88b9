"""The generator gives every seed the same mix of work."""

from __future__ import annotations

import random

import pytest

from perfbench import corpus, workloads
from perfbench.corpus import Sizes


@pytest.mark.parametrize("seed", range(20))
def test_phones_are_distinct_within_a_book_pair(seed):
    rng = random.Random(seed)
    for index in range(8):
        shapes = corpus.group_shapes(f"test:{seed}", index, 4)
        entries_a, entries_b = corpus.book_entries(rng, shapes)
        phones = [phone for _, phone in entries_a + entries_b]
        assert len(phones) == len(set(phones))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_cold_first_touch_runs_the_same_plan(tmp_path, seed):
    cold = workloads.Cold(seed, Sizes(documents=4, groups=1), tmp_path)
    cold.setup()
    seen = set()
    for name, plan in cold.pairs:
        if name not in seen:
            assert plan == workloads.FIRST_TOUCH
        seen.add(name)
    assert len(cold.pairs) == len(set(cold.pairs)) == 4 * 5
