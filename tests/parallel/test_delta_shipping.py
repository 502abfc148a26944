"""Unit tests for delta shipping, sharding, and chunk autotuning.

These pin the executor's bookkeeping without needing a worker pool:
``_ship_missing`` / ``release_masks`` residency accounting, the
``_shards`` sizing rules (including the empty-task-list case that
used to divide by zero), and the cost EMA that feeds autotuning.
"""

import multiprocessing

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import worker as worker_mod
from repro.parallel.executor import ProcessLevelExecutor
from repro.parallel.worker import ChunkReceipt
from repro.partition.vectorized import CsrPartition


@pytest.fixture
def executor():
    executor = ProcessLevelExecutor(workers=4, chunks_per_worker=4)
    yield executor
    executor.close()


def fetcher(num_rows=30, domains=(2, 3, 4, 5)):
    partitions = {
        1 << i: CsrPartition.from_column(
            np.arange(num_rows, dtype=np.int64) % domain
        )
        for i, domain in enumerate(domains)
    }
    return partitions.__getitem__


class TestShards:
    def test_empty_task_list_yields_no_shards(self, executor):
        # Regression: the shard-count arithmetic used to divide by a
        # count of zero for an empty phase.
        assert executor._shards([], "products") == []
        assert executor._shards((), "validity") == []

    def test_static_count_without_cost_data(self, executor):
        tasks = list(range(100))
        shards = executor._shards(tasks, "products")
        assert len(shards) == executor.workers * executor._chunks_per_worker
        assert [task for shard in shards for task in shard] == tasks

    def test_fewer_tasks_than_shards(self, executor):
        shards = executor._shards([1, 2, 3], "products")
        assert len(shards) == 3
        assert all(len(shard) == 1 for shard in shards)

    def test_cheap_tasks_merge_into_fewer_chunks(self, executor):
        # 1 µs/task, 0.05 s target => ideal is ~1 chunk, but the
        # count never drops below `workers` (keep the pool busy).
        executor._task_cost["products"] = 1e-6
        shards = executor._shards(list(range(1000)), "products")
        assert len(shards) == executor.workers

    def test_expensive_tasks_hit_static_ceiling(self, executor):
        executor._task_cost["products"] = 10.0
        tasks = list(range(1000))
        shards = executor._shards(tasks, "products")
        assert len(shards) == executor.workers * executor._chunks_per_worker
        assert [task for shard in shards for task in shard] == tasks

    def test_intermediate_cost_lands_between_bounds(self, executor):
        executor._task_cost["products"] = 0.005  # 10 tasks/chunk target
        shards = executor._shards(list(range(100)), "products")
        assert executor.workers <= len(shards)
        assert len(shards) <= executor.workers * executor._chunks_per_worker

    def test_autotune_off_ignores_cost(self):
        executor = ProcessLevelExecutor(
            workers=4, chunks_per_worker=4, autotune_chunks=False
        )
        try:
            executor._task_cost["products"] = 1e-6
            shards = executor._shards(list(range(1000)), "products")
            assert len(shards) == 16
        finally:
            executor.close()


class TestCostEma:
    def test_record_blends_receipts(self, executor):
        receipt = ChunkReceipt(pid=1, seconds=1.0, payload=[None] * 10)
        executor._record(receipt, "products")
        assert executor._task_cost["products"] == pytest.approx(0.1)
        slower = ChunkReceipt(pid=1, seconds=3.0, payload=[None] * 10)
        executor._record(slower, "products")
        assert executor._task_cost["products"] == pytest.approx(0.2)

    def test_kinds_are_tracked_separately(self, executor):
        executor._record(ChunkReceipt(pid=1, seconds=1.0, payload=[0]), "products")
        executor._record(ChunkReceipt(pid=1, seconds=4.0, payload=[0]), "validity")
        assert executor._task_cost["products"] == pytest.approx(1.0)
        assert executor._task_cost["validity"] == pytest.approx(4.0)


class TestDeltaResidency:
    def test_second_ship_only_sends_new_masks(self, executor):
        fetch = fetcher()
        first = executor._ship_missing({1, 2}, fetch, "products")
        assert len(first) == 1
        assert set(executor._residency) == {1, 2}
        shipped_after_first = executor.usage.shm_bytes
        assert executor.usage.shm_bytes_saved == 0

        second = executor._ship_missing({1, 2, 4}, fetch, "products")
        assert len(second) == 1, "only mask 4 needs a new block"
        assert set(executor._residency) == {1, 2, 4}
        assert executor.usage.shm_bytes > shipped_after_first
        assert executor.usage.shm_bytes_saved > 0, "masks 1,2 were resident"

        third = executor._ship_missing({1, 4}, fetch, "products")
        assert third == [], "everything already resident"
        assert executor.usage.blocks_shipped == 2

    def test_release_masks_closes_drained_blocks(self, executor):
        fetch = fetcher()
        executor._ship_missing({1, 2}, fetch, "products")
        executor._ship_missing({4}, fetch, "products")
        assert len(executor._blocks) == 2

        executor.release_masks([1])
        assert len(executor._blocks) == 2, "block still holds mask 2"
        assert 1 not in executor._residency

        executor.release_masks([2])
        assert len(executor._blocks) == 1, "first block drained"
        assert set(executor._residency) == {4}

        executor.release_masks([4, 8])  # 8 was never resident: no-op
        assert not executor._blocks
        assert not executor._residency

    def test_directory_maps_masks_to_their_blocks(self, executor):
        fetch = fetcher()
        executor._ship_missing({1, 2}, fetch, "products")
        executor._ship_missing({4}, fetch, "products")
        directory = executor._directory([1, 4, 1])
        assert set(directory) == {1, 4}
        names = {directory[1][0], directory[4][0]}
        assert len(names) == 2, "masks live in the blocks that shipped them"


class TestDispatchConsumesEveryChunk:
    def test_products_stream_yields_every_triple_exactly_once(self):
        # Pins the `_dispatch` postcondition (position == len(chunks)
        # on the clean exit): every shard yields exactly one receipt,
        # in submission order, so the stream emits one product per
        # triple with no gap or duplicate — across two phases on the
        # same pool.
        num_rows = 24
        partitions = {
            1 << i: CsrPartition.from_column(
                np.arange(num_rows, dtype=np.int64) % domain
            )
            for i, domain in enumerate((2, 3, 4, 5, 6))
        }
        triples = [
            (x | y, x, y)
            for i, x in enumerate(sorted(partitions))
            for y in sorted(partitions)[i + 1 :]
        ]
        executor = ProcessLevelExecutor(
            workers=2, chunks_per_worker=4, retry_backoff_seconds=0.0
        )
        try:
            for _phase in range(2):
                produced = list(
                    executor.products(triples, partitions.__getitem__, None)
                )
                assert [candidate for candidate, _ in produced] == [
                    candidate for candidate, _, _ in triples
                ]
                for (candidate, x, y), (_, product) in zip(triples, produced):
                    expected = partitions[x].product(partitions[y])
                    assert np.array_equal(product.indices, expected.indices)
                    assert np.array_equal(product.offsets, expected.offsets)
        finally:
            executor.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="monkeypatched threshold reaches workers via fork inheritance",
)
class TestResultBlockAdoption:
    """Large products return through worker-created shm blocks."""

    @pytest.fixture
    def partitions(self):
        num_rows = 200
        return {
            1 << i: CsrPartition.from_column(
                np.arange(num_rows, dtype=np.int64) % domain
            )
            for i, domain in enumerate((2, 3, 4))
        }

    @pytest.fixture
    def triples(self, partitions):
        return [(3, 1, 2), (5, 1, 4), (6, 2, 4)]

    def _run(self, executor, partitions, triples):
        produced = list(executor.products(triples, partitions.__getitem__, None))
        assert [candidate for candidate, _ in produced] == [
            candidate for candidate, _, _ in triples
        ]
        for (candidate, x, y), (_, product) in zip(triples, produced):
            expected = partitions[x].product(partitions[y])
            assert np.array_equal(product.indices, expected.indices)
            assert np.array_equal(product.offsets, expected.offsets)

    def test_adopted_candidates_become_resident(
        self, monkeypatch, partitions, triples
    ):
        # Every chunk crosses the (zeroed) byte threshold, so results
        # come back as worker-created blocks the parent adopts.
        monkeypatch.setattr(worker_mod, "_RESULT_BLOCK_MIN_BYTES", 0)
        executor = ProcessLevelExecutor(workers=2, chunks_per_worker=2)
        try:
            self._run(executor, partitions, triples)
            assert {3, 5, 6} <= set(executor._residency)
            adopted = executor.usage.blocks_shipped
            assert adopted >= 2, "factor block plus at least one result block"

            # The next phase finds the candidates already resident:
            # nothing re-ships, and the skipped bytes are recorded.
            def unexpected_fetch(mask):
                raise AssertionError(f"mask {mask} should be resident")

            saved_before = executor.usage.shm_bytes_saved
            assert executor._ship_missing({3, 5, 6}, unexpected_fetch, "x") == []
            assert executor.usage.shm_bytes_saved > saved_before

            # Releasing the candidates drains and closes their blocks.
            executor.release_masks([3, 5, 6])
            assert not {3, 5, 6} & set(executor._residency)
        finally:
            executor.close()

    def test_serial_fallback_adopts_its_own_block(
        self, monkeypatch, partitions, triples
    ):
        # Degraded mode runs chunks in the parent: the block is built,
        # detached, and re-adopted by the same process.
        monkeypatch.setattr(worker_mod, "_RESULT_BLOCK_MIN_BYTES", 0)
        executor = ProcessLevelExecutor(workers=2, chunks_per_worker=2)
        try:
            executor._degraded = True
            executor.usage.degraded = True
            self._run(executor, partitions, triples)
            assert {3, 5, 6} <= set(executor._residency)
        finally:
            executor.close()

    def test_small_results_stay_inline(self, partitions, triples):
        # Default threshold: these tiny products pickle through the
        # pipe and never become resident.
        executor = ProcessLevelExecutor(workers=2, chunks_per_worker=2)
        try:
            self._run(executor, partitions, triples)
            assert not {3, 5, 6} & set(executor._residency)
        finally:
            executor.close()


class TestConfigValidation:
    def test_bad_target_chunk_seconds(self):
        with pytest.raises(ConfigurationError, match="target_chunk_seconds"):
            ProcessLevelExecutor(workers=1, target_chunk_seconds=0)
