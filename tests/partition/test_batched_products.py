"""The partition-product kernel against a first-principles layout.

``batched_products`` is the only product kernel (``CsrPartition.product``
is a one-pair call to it).  Every product it emits must be
*byte-identical* to the canonical layout built here straight from
Lemma 3 — same classes, same class order, same row order — because
downstream consumers (shared-memory export, the partition cache,
golden counters) all compare raw buffers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.partition.vectorized as vectorized
from repro.exceptions import DataError
from repro.partition.vectorized import (
    CsrPartition,
    PartitionWorkspace,
    batched_products,
)


def canonical_product(x, y):
    """``π_x · π_y`` from the definition, in the canonical layout.

    Rows lying in a stripped class of both factors are grouped by the
    pair (class-in-x, class-in-y); classes are ordered by that pair,
    rows inside a class keep the right factor's order, and pairs
    occurring once are stripped.
    """
    class_in_x = {}
    for k in range(x.num_classes):
        for row in x.indices[x.offsets[k]:x.offsets[k + 1]].tolist():
            class_in_x[row] = k
    groups = {}
    for k in range(y.num_classes):
        for row in y.indices[y.offsets[k]:y.offsets[k + 1]].tolist():
            if row in class_in_x:
                groups.setdefault((class_in_x[row], k), []).append(row)
    classes = [groups[key] for key in sorted(groups) if len(groups[key]) >= 2]
    indices = np.array([row for rows in classes for row in rows], dtype=np.int64)
    offsets = np.cumsum([0] + [len(rows) for rows in classes], dtype=np.int64)
    return indices, offsets


def assert_canonical(observed, x, y):
    indices, offsets = canonical_product(x, y)
    assert observed.indices.dtype == np.int64
    assert observed.offsets.dtype == np.int64
    assert np.array_equal(observed.indices, indices)
    assert np.array_equal(observed.offsets, offsets)
    assert observed.num_rows == x.num_rows


def random_partitions(seed, count=8, num_rows=200, max_domain=12):
    rng = np.random.default_rng(seed)
    return [
        CsrPartition.from_column(
            rng.integers(0, rng.integers(1, max_domain + 1), size=num_rows)
        )
        for _ in range(count)
    ]


def all_pairs(partitions):
    return [
        (x, y) for i, x in enumerate(partitions) for y in partitions[i + 1 :]
    ]


def mostly_unique_column(num_rows, repeated_rows, seed):
    """Codes where only ``repeated_rows`` rows share values (in pairs),
    so products with this factor keep few surviving rows."""
    codes = np.arange(num_rows, dtype=np.int64)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(num_rows, size=repeated_rows, replace=False)
    first, second = chosen[0::2], chosen[1::2]
    codes[second] = first[:second.size]
    return codes


class TestBatchedMatchesPerTriple:
    """Each task of a batch is checked against its own canonical product."""

    def test_random_level_byte_identical(self):
        partitions = random_partitions(seed=11)
        pairs = all_pairs(partitions)
        workspace = PartitionWorkspace(partitions[0].num_rows)
        batched = batched_products(pairs, workspace)
        assert len(batched) == len(pairs)
        for (x, y), observed in zip(pairs, batched):
            assert_canonical(observed, x, y)
            assert_canonical(x.product(y, workspace), x, y)
        assert (workspace.probe == -1).all()

    def test_shared_left_factor_probe_reuse(self):
        # Levels sort triples by left factor; the kernel keeps the
        # probe scattered across consecutive same-left pairs and must
        # re-scatter when the left factor changes and comes back.
        [left, other] = random_partitions(seed=3, count=2)
        rights = random_partitions(seed=4, count=6)
        pairs = [(left, right) for right in rights[:3]]
        pairs += [(other, rights[3]), (left, rights[4]), (left, rights[5])]
        workspace = PartitionWorkspace(left.num_rows)
        for (x, y), observed in zip(pairs, batched_products(pairs, workspace)):
            assert_canonical(observed, x, y)
        assert (workspace.probe == -1).all()

    def test_int16_flush_limit(self, monkeypatch):
        # Left factors with 10,000 classes each: pooling four of them
        # would push the shifted labels past int16, so the pool must be
        # flushed first.  The last left factor alone exceeds int16 and
        # is grouped in a pool of its own with wider labels.
        num_rows = 80_000
        wide = CsrPartition.from_column(np.arange(num_rows) % 10_000)
        wider = CsrPartition.from_column(np.arange(num_rows) // 2)
        assert wider.num_classes > np.iinfo(np.int16).max
        rights = [
            CsrPartition.from_column(mostly_unique_column(num_rows, 400, seed))
            for seed in range(5)
        ]
        pairs = [(wide, right) for right in rights[:4]] + [(wider, rights[4])]
        pools = []
        group_pool = vectorized._group_pool

        def recording_group_pool(pool, num_left_labels, results, num_rows):
            pools.append((len(pool), num_left_labels))
            group_pool(pool, num_left_labels, results, num_rows)

        monkeypatch.setattr(vectorized, "_group_pool", recording_group_pool)
        for (x, y), observed in zip(pairs, batched_products(pairs)):
            assert_canonical(observed, x, y)
        assert pools == [(3, 30_000), (1, 10_000), (1, wider.num_classes)]

    def test_solo_task_among_pooled(self):
        # One task at or above _BATCH_SOLO_ROWS surviving rows, grouped
        # alone, between pooled small tasks.
        rng = np.random.default_rng(17)
        num_rows = 2 * vectorized._BATCH_SOLO_ROWS
        big_left = CsrPartition.from_column(rng.integers(0, 40, size=num_rows))
        big_right = CsrPartition.from_column(rng.integers(0, 30, size=num_rows))
        sparse = CsrPartition.from_column(mostly_unique_column(num_rows, 300, 1))
        pairs = [(big_left, sparse), (big_left, big_right), (big_right, sparse)]
        assert big_left.product(big_right).stripped_size >= vectorized._BATCH_SOLO_ROWS
        for (x, y), observed in zip(pairs, batched_products(pairs)):
            assert_canonical(observed, x, y)

    def test_empty_and_degenerate_pairs(self):
        num_rows = 30
        empty = CsrPartition.empty(num_rows)
        single = CsrPartition.single_class(num_rows)
        ordinary = CsrPartition.from_column(
            np.arange(num_rows, dtype=np.int64) % 3
        )
        # evens · firsts: rows survive but every pair is a singleton;
        # firsts · lasts: no row survives at all.
        evens = CsrPartition.from_classes([range(0, 10, 2), range(1, 10, 2)], num_rows)
        firsts = CsrPartition.from_classes([[0, 1], [2, 3], [4, 5]], num_rows)
        lasts = CsrPartition.from_classes([[20, 21], [22, 23]], num_rows)
        pairs = [
            (empty, ordinary),
            (ordinary, empty),
            (single, ordinary),
            (ordinary, single),
            (empty, empty),
            (single, single),
            (ordinary, ordinary),
            (evens, firsts),
            (firsts, lasts),
        ]
        for (x, y), observed in zip(pairs, batched_products(pairs)):
            assert_canonical(observed, x, y)
        assert batched_products([(evens, firsts)])[0].num_classes == 0
        assert batched_products([(firsts, lasts)])[0].num_classes == 0
        [none] = batched_products([(CsrPartition.empty(0), CsrPartition.empty(0))])
        assert none.num_rows == 0 and none.num_classes == 0

    def test_empty_task_list(self):
        assert batched_products([]) == []

    def test_bad_factors_rejected_with_probe_clean(self):
        left, right = random_partitions(seed=5, count=2, num_rows=40)
        workspace = PartitionWorkspace(40)
        with pytest.raises(DataError):
            batched_products(
                [(left, right), (left, CsrPartition.empty(41))], workspace
            )
        with pytest.raises(TypeError):
            batched_products([(left, right), (left, object())], workspace)
        assert (workspace.probe == -1).all()


COLUMNS = st.lists(
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=40),
    min_size=1,
    max_size=4,
)


class TestCanonicalOrderingProperty:
    @given(
        columns=COLUMNS,
        tasks=st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=12
        ),
        solo_rows=st.sampled_from([1, 5, vectorized._BATCH_SOLO_ROWS]),
        element_budget=st.sampled_from([1, 16, vectorized._BATCH_ELEMENT_BUDGET]),
        pool_max_classes=st.sampled_from([1, 7, vectorized._POOL_MAX_CLASSES]),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_first_principles_layout(
        self, columns, tasks, solo_rows, element_budget, pool_max_classes
    ):
        num_rows = max(len(column) for column in columns)
        singles = [
            CsrPartition.from_column(
                np.array(column + [0] * (num_rows - len(column)), dtype=np.int64),
                num_rows,
            )
            for column in columns
        ]
        # Products of products: their classes hold rows out of
        # ascending order, so "the right factor's order" is exercised.
        partitions = singles + [
            x.product(y) for x in singles for y in reversed(singles)
        ]
        pairs = [
            (partitions[i % len(partitions)], partitions[j % len(partitions)])
            for i, j in tasks
        ]
        # Shrinking the pooling limits routes the same tasks through
        # solo groups, many small pools and label-range flushes.
        # monkeypatch is function-scoped and cannot wrap @given, so the
        # limits are swapped by hand around each example.
        saved = (
            vectorized._BATCH_SOLO_ROWS,
            vectorized._BATCH_ELEMENT_BUDGET,
            vectorized._POOL_MAX_CLASSES,
        )
        try:
            (
                vectorized._BATCH_SOLO_ROWS,
                vectorized._BATCH_ELEMENT_BUDGET,
                vectorized._POOL_MAX_CLASSES,
            ) = (solo_rows, element_budget, pool_max_classes)
            workspace = PartitionWorkspace(num_rows)
            batched = batched_products(pairs, workspace)
        finally:
            (
                vectorized._BATCH_SOLO_ROWS,
                vectorized._BATCH_ELEMENT_BUDGET,
                vectorized._POOL_MAX_CLASSES,
            ) = saved
        assert len(batched) == len(pairs)
        for (x, y), observed in zip(pairs, batched):
            assert_canonical(observed, x, y)
        assert (workspace.probe == -1).all()

    def test_boundary_pair_layouts_agree(self, monkeypatch):
        # Put _BATCH_SOLO_ROWS exactly at a pair's surviving-row count
        # (grouped alone) and one above it (pooled with a neighbour),
        # and demand the canonical bytes both ways.
        rng = np.random.default_rng(91)
        x = CsrPartition.from_column(rng.integers(0, 7, size=300))
        y = CsrPartition.from_column(rng.integers(0, 5, size=300))
        z = CsrPartition.from_column(rng.integers(0, 3, size=300))
        surviving = np.intersect1d(x.indices, y.indices).size
        pairs = [(x, z), (x, y)]
        for solo_rows in (surviving, surviving + 1):
            monkeypatch.setattr(vectorized, "_BATCH_SOLO_ROWS", solo_rows)
            for (left, right), observed in zip(pairs, batched_products(pairs)):
                assert_canonical(observed, left, right)
