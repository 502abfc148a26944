"""Exception safety of the shared probe workspace.

One :class:`PartitionWorkspace` is shared by an entire TANE run (and by
every chunk a pool worker executes).  ``product`` and
``g3_error_count`` scatter class labels into the probe array and must
reset them *even when the operation raises* — e.g. a corrupt attached
partition carrying out-of-range row ids — otherwise every later
product silently computes garbage.  These are regression tests for the
historical success-path-only reset.
"""

import numpy as np
import pytest

import repro.partition.vectorized as vectorized
from repro.partition.vectorized import CsrPartition, PartitionWorkspace

NUM_ROWS = 60


def healthy_pair():
    rng = np.random.default_rng(5)
    left = CsrPartition.from_column(rng.integers(0, 4, size=NUM_ROWS))
    right = CsrPartition.from_column(rng.integers(0, 3, size=NUM_ROWS))
    return left, right


def corrupt_partition():
    """A partition whose row ids exceed the relation (attach skips
    validation by design — workers trust shared-memory buffers)."""
    indices = np.array([NUM_ROWS + 5, NUM_ROWS + 6], dtype=np.int64)
    offsets = np.array([0, 2], dtype=np.int64)
    return CsrPartition.attach(indices, offsets, NUM_ROWS)


class TestProductProbeReset:
    def test_failed_product_leaves_probe_clean(self):
        left, _ = healthy_pair()
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.product(corrupt_partition(), workspace)
        assert (workspace.probe == -1).all(), "probe left dirty after a raise"

    def test_next_product_correct_after_failure(self):
        left, right = healthy_pair()
        expected = left.product(right)  # private workspace
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.product(corrupt_partition(), workspace)
        observed = left.product(right, workspace)
        assert np.array_equal(observed.indices, expected.indices)
        assert np.array_equal(observed.offsets, expected.offsets)

    def test_batched_products_reset_on_failure(self):
        left, right = healthy_pair()
        expected = left.product(right)
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            vectorized.batched_products(
                [(left, right), (left, corrupt_partition())], workspace
            )
        assert (workspace.probe == -1).all()
        [redo] = vectorized.batched_products([(left, right)], workspace)
        assert np.array_equal(redo.indices, expected.indices)


class TestG3ProbeReset:
    def test_failed_g3_leaves_probe_clean_and_later_calls_correct(self):
        left, right = healthy_pair()
        refined = left.product(right)
        expected = left.g3_error_count(refined)
        workspace = PartitionWorkspace(NUM_ROWS)
        with pytest.raises(IndexError):
            left.g3_error_count(corrupt_partition(), workspace)
        assert (workspace.probe == -1).all()
        assert left.g3_error_count(refined, workspace) == expected
