"""Vectorized stripped-partition engine (CSR layout over numpy arrays).

This is the engine the TANE driver actually runs on.  A partition is
stored in *compressed sparse row* style:

* ``indices`` — one ``int64`` array of row ids, grouped by class;
* ``offsets`` — class boundaries (``offsets[k] .. offsets[k+1]`` is
  class ``k``).

This realizes the extended version's "more compact representation of
partitions" optimization: memory per partition is two flat arrays, and
both the partition product and the ``g3`` computation become a handful
of vectorized passes instead of per-row Python work.

Canonical layout
----------------
Every constructor and the product kernel emit stripped classes in
**one** canonical order, so the byte layout of a partition never
depends on how it was produced (checkpoint adoption, shared-memory
shipping, and golden comparisons all compare raw buffers):

* :meth:`CsrPartition.from_column` orders classes by value code;
* products order classes by the pair ``(class-in-self,
  class-in-other)``, with rows inside a class in the right factor's
  index order.

There is one product kernel, :func:`batched_products`, the paper's
probe-table pass (Lemma 3) over numpy arrays.  The left factor's labels
are scattered into a shared probe; the right factor's surviving rows
then come out in right-class order, so one stable sort on the left
label (int16, a radix sort, for pooled small tasks) gives the canonical
layout.  ``CsrPartition.product`` is a one-pair call to it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.partition.base import PartitionBase

__all__ = ["CsrPartition", "PartitionWorkspace", "batched_products"]


class PartitionWorkspace:
    """Reusable scratch space for partition products and g3 tests.

    Holds one probe array of length ``num_rows`` initialized to ``-1``.
    Operations label only the rows they touch and reset them
    afterwards, so a single workspace can be shared by an entire TANE
    run (one per thread).
    """

    __slots__ = ("num_rows", "probe")

    def __init__(self, num_rows: int) -> None:
        self.num_rows = num_rows
        self.probe = np.full(num_rows, -1, dtype=np.int64)


class CsrPartition(PartitionBase):
    """Stripped partition in CSR layout."""

    __slots__ = (
        "_indices", "_offsets", "_num_rows", "_error_count", "_sizes", "_label_cache",
    )

    def __init__(self, indices: np.ndarray, offsets: np.ndarray, num_rows: int) -> None:
        self._indices = np.asarray(indices, dtype=np.int64)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._num_rows = num_rows
        if self._offsets.size == 0 or self._offsets[0] != 0 or self._offsets[-1] != self._indices.size:
            raise DataError("malformed CSR offsets")
        # e(π) = ||π̂|| - |π̂| as a plain int: the Lemma-2 validity test
        # compares it millions of times per run.
        self._error_count = int(self._indices.size) - int(self._offsets.size - 1)
        self._sizes: np.ndarray | None = None
        self._label_cache: np.ndarray | None = None

    @property
    def error_count(self) -> int:
        """``e(π) = ||π̂|| - |π̂|`` (precomputed)."""
        return self._error_count

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_column(cls, codes: Sequence[int] | np.ndarray, num_rows: int | None = None) -> "CsrPartition":
        """Build ``π_{{A}}`` from a column of non-negative value codes."""
        codes = np.asarray(codes, dtype=np.int64)
        if num_rows is None:
            num_rows = codes.size
        if codes.size != num_rows:
            raise DataError(f"column has {codes.size} codes for {num_rows} rows")
        if num_rows == 0:
            return cls.empty(0)
        if int(codes.min()) < 0:
            row = int(np.argmax(codes < 0))
            raise DataError(
                f"negative value code {int(codes[row])} at row {row}; "
                "column codes must be non-negative integers"
            )
        if int(codes.max()) > 2 * num_rows + 1024:
            # Sparse code space: bincount would allocate max(code)+1
            # counters. Re-encode densely first (same partition).
            _, codes = np.unique(codes, return_inverse=True)
        counts = np.bincount(codes)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        keep = counts[sorted_codes] >= 2
        indices = order[keep]
        kept_sizes = counts[counts >= 2]
        offsets = np.concatenate(([0], np.cumsum(kept_sizes)))
        return cls(indices, offsets, num_rows)

    @classmethod
    def from_classes(cls, classes: Iterable[Sequence[int]], num_rows: int) -> "CsrPartition":
        """Build from an explicit collection of classes (singletons dropped)."""
        stripped = [np.asarray(sorted(c), dtype=np.int64) for c in classes if len(c) >= 2]
        if not stripped:
            return cls.empty(num_rows)
        indices = np.concatenate(stripped)
        if np.unique(indices).size != indices.size:
            raise DataError("partition classes overlap")
        if indices.min() < 0 or indices.max() >= num_rows:
            raise DataError("row index out of range for partition")
        offsets = np.concatenate(([0], np.cumsum([c.size for c in stripped])))
        return cls(indices, offsets, num_rows)

    @classmethod
    def empty(cls, num_rows: int) -> "CsrPartition":
        """A partition with no stripped classes (every row a singleton)."""
        return cls(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), num_rows)

    @classmethod
    def single_class(cls, num_rows: int) -> "CsrPartition":
        """The partition ``π_∅`` with one class containing every row."""
        if num_rows < 2:
            return cls.empty(num_rows)
        return cls(
            np.arange(num_rows, dtype=np.int64),
            np.array([0, num_rows], dtype=np.int64),
            num_rows,
        )

    # ------------------------------------------------------------------
    # Buffer export / attach (shared-memory shipment)
    # ------------------------------------------------------------------

    def export_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(indices, offsets)`` buffers as contiguous int64.

        Used by :mod:`repro.parallel.shm` to copy a partition into a
        shared-memory block (and by workers to pickle products back).
        Returns the internal arrays when they are already contiguous;
        treat them as read-only.
        """
        return (
            np.ascontiguousarray(self._indices, dtype=np.int64),
            np.ascontiguousarray(self._offsets, dtype=np.int64),
        )

    @classmethod
    def attach(
        cls, indices: np.ndarray, offsets: np.ndarray, num_rows: int
    ) -> "CsrPartition":
        """Build a partition over *existing* int64 buffers without copying.

        The caller promises the buffers outlive the partition and are
        never mutated — the contract under which workers reconstruct
        partitions directly over a shared-memory segment.
        """
        return cls(indices, offsets, num_rows)

    # ------------------------------------------------------------------
    # PartitionBase primitives
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def stripped_size(self) -> int:
        return int(self._indices.size)

    @property
    def num_classes(self) -> int:
        return int(self._offsets.size - 1)

    @property
    def class_sizes(self) -> np.ndarray:
        """Sizes of the stripped classes as an array (cached)."""
        if self._sizes is None:
            self._sizes = self._offsets[1:] - self._offsets[:-1]
        return self._sizes

    @property
    def indices(self) -> np.ndarray:
        """Row ids grouped by class (internal buffer; do not mutate)."""
        return self._indices

    @property
    def offsets(self) -> np.ndarray:
        """Class boundary offsets (internal buffer; do not mutate)."""
        return self._offsets

    def classes(self) -> Iterator[tuple[int, ...]]:
        for k in range(self.num_classes):
            start, end = self._offsets[k], self._offsets[k + 1]
            yield tuple(sorted(int(i) for i in self._indices[start:end]))

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes (used by stores)."""
        return int(self._indices.nbytes + self._offsets.nbytes)

    # ------------------------------------------------------------------
    # Product and g3
    # ------------------------------------------------------------------

    def _labels(self) -> np.ndarray:
        """Class label of each stripped row, aligned with ``indices``.

        Cached: partitions are immutable and the label array is reused
        by every product/g3 call involving this partition.
        """
        if self._label_cache is None:
            self._label_cache = np.repeat(
                np.arange(self.num_classes, dtype=np.int64), self.class_sizes
            )
        return self._label_cache

    def product(
        self,
        other: "PartitionBase",
        workspace: PartitionWorkspace | None = None,
    ) -> "CsrPartition":
        """Stripped partition product ``π · π'`` (Lemma 3).

        A one-pair call to :func:`batched_products`, the only product
        kernel: rows in a stripped class of *both* inputs are grouped
        by the pair (class-in-self, class-in-other), and pairs
        occurring once are stripped.
        """
        return batched_products([(self, other)], workspace)[0]

    def g3_error_count(
        self,
        refined: "PartitionBase",
        workspace: PartitionWorkspace | None = None,
    ) -> int:
        """Rows to remove for ``X → A`` to hold, given ``π_{X∪{A}}``.

        Every stripped class of ``refined`` lies wholly inside one
        stripped class of ``self`` (refinement), so the parent of a
        refined class is determined by any one of its rows.  The
        largest refined sub-class is kept per parent class; singleton
        sub-classes count as size 1.
        """
        if not isinstance(refined, CsrPartition):
            raise TypeError("CsrPartition can only be compared with CsrPartition")
        if refined.num_rows != self._num_rows:
            raise DataError("partitions are over different relations")
        if self.num_classes == 0:
            return 0
        if workspace is None:
            workspace = PartitionWorkspace(self._num_rows)
        probe = workspace.probe
        # try/finally for the same reason as in ``batched_products``: a
        # raise between scatter and reset must not leave the shared
        # probe dirty for the rest of the run.
        try:
            probe[self._indices] = self._labels()
            largest = np.ones(self.num_classes, dtype=np.int64)
            if refined.num_classes:
                first_rows = refined._indices[refined._offsets[:-1]]
                parents = probe[first_rows]
                valid = parents >= 0
                np.maximum.at(largest, parents[valid], refined.class_sizes[valid])
        finally:
            probe[self._indices] = -1
        return int(self.stripped_size - largest.sum())


# ----------------------------------------------------------------------
# The product kernel
# ----------------------------------------------------------------------

# Tasks with at least this many surviving rows are sort-dominated:
# numpy's fixed per-call costs are already negligible against a sort of
# this size, and merging them into a larger concatenated sort only
# makes the sort slower.  They are grouped one at a time; only smaller
# tasks are pooled into one shared sort.
_BATCH_SOLO_ROWS = 4096

# Element budget of one pool.  Kept small so the pooled sort stays
# cache-resident.
_BATCH_ELEMENT_BUDGET = 1 << 16

# A pool's shifted left labels must fit in int16, the widest dtype
# numpy's stable sort handles by radix; the pool is flushed first.
_POOL_MAX_CLASSES = int(np.iinfo(np.int16).max)


def _narrowest_key_dtype(keyspace: int) -> np.dtype:
    """Smallest signed dtype that can hold keys in ``[0, keyspace)``.

    numpy's stable sort is a radix sort for 16-bit integers (roughly
    an order of magnitude faster than the comparison sort used for
    wider types), so narrowing the sort keys is a genuine win, not
    just a memory saving.
    """
    if keyspace <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if keyspace <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _group_pool(
    pool: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    num_left_labels: int,
    results: list["CsrPartition | None"],
    num_rows: int,
) -> None:
    """Group the surviving rows of one or more tasks with one sort.

    ``pool`` holds ``(position, left, right, rows)`` per task: the
    surviving rows in the right factor's order with their class labels
    in either factor.  Each task's left labels are shifted into its own
    range of ``[0, num_left_labels)``, ascending in task order.

    The rows arrive in right-class order, so a stable sort on the left
    label alone yields the canonical ``(left-class, right-class)``
    layout with rows in the right factor's order, and every task stays
    contiguous.  Classes start wherever either label changes.
    """
    if len(pool) == 1:
        [(_position, left, right, rows)] = pool
    else:
        left = np.concatenate([task[1] for task in pool])
        right = np.concatenate([task[2] for task in pool])
        rows = np.concatenate([task[3] for task in pool])
    left = left.astype(_narrowest_key_dtype(num_left_labels))
    order = np.argsort(left, kind="stable")
    sorted_left = left[order]
    sorted_right = right[order]
    change = np.empty(rows.size, dtype=bool)
    change[0] = True
    np.not_equal(sorted_left[1:], sorted_left[:-1], out=change[1:])
    change[1:] |= sorted_right[1:] != sorted_right[:-1]
    starts = np.flatnonzero(change)
    sizes = np.diff(starts, append=rows.size)
    kept = sizes >= 2
    indices = rows[order][np.repeat(kept, sizes)]
    offsets = np.concatenate(([0], np.cumsum(sizes[kept])))
    # Per task: its first group, then its first kept class, then the
    # first element of that class.
    task_starts = np.cumsum([0] + [task[3].size for task in pool])
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    class_bounds = kept_before[np.searchsorted(starts, task_starts)]
    element_bounds = offsets[class_bounds].tolist()
    class_bounds = class_bounds.tolist()
    for t, task in enumerate(pool):
        first, last = class_bounds[t], class_bounds[t + 1]
        task_indices = indices[element_bounds[t]:element_bounds[t + 1]]
        if len(pool) > 1:
            # A view would pin the whole pool's buffer for as long as
            # any one product lives; stores budget bytes per partition.
            task_indices = task_indices.copy()
        results[task[0]] = CsrPartition(
            task_indices, offsets[first:last + 1] - offsets[first], num_rows
        )


def batched_products(
    pairs: Sequence[tuple["CsrPartition", "CsrPartition"]],
    workspace: PartitionWorkspace | None = None,
) -> list["CsrPartition"]:
    """Compute many partition products in a few shared numpy passes.

    The only product kernel (``CsrPartition.product`` is a one-pair
    call).  Returns ``[x · y for x, y in pairs]`` in the canonical
    layout, in order:

    * consecutive tasks sharing a left factor reuse one probe scatter
      (GENERATE-NEXT-LEVEL's prefix-block triples make this common);
    * tasks below ``_BATCH_SOLO_ROWS`` surviving rows — where numpy's
      fixed per-call costs rival the real work — are pooled into one
      int16 radix sort, their left labels shifted into disjoint
      per-task ranges;
    * tasks at or above the threshold are sort-dominated, so pooling
      them would only slow the sort: they are grouped one at a time.
    """
    if not pairs:
        return []
    results: list[CsrPartition | None] = [None] * len(pairs)
    num_rows = pairs[0][0].num_rows
    if workspace is None:
        workspace = PartitionWorkspace(num_rows)
    probe = workspace.probe
    scattered: CsrPartition | None = None
    pool: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    pool_classes = pool_rows = 0
    # The reset must run even when the gather raises (e.g. a corrupt
    # attached partition with out-of-range row ids): the workspace is
    # shared by the whole run, and a dirty probe silently corrupts
    # every later product.
    try:
        for position, (x, y) in enumerate(pairs):
            if not isinstance(x, CsrPartition) or not isinstance(y, CsrPartition):
                raise TypeError("CsrPartition can only be multiplied with CsrPartition")
            if x.num_rows != num_rows or y.num_rows != num_rows:
                raise DataError("partitions are over different relations")
            x_classes = x.num_classes
            if x_classes == 0 or y.num_classes == 0:
                # A factor with no stripped classes kills every pair.
                results[position] = CsrPartition.empty(num_rows)
                continue
            if scattered is not x:
                if scattered is not None:
                    probe[scattered._indices] = -1
                scattered = x
                probe[x._indices] = x._labels()
            in_x = probe[y._indices]
            mask = in_x >= 0
            rows = y._indices[mask]
            if rows.size == 0:
                results[position] = CsrPartition.empty(num_rows)
                continue
            left, right = in_x[mask], y._labels()[mask]
            if rows.size >= _BATCH_SOLO_ROWS:
                _group_pool([(position, left, right, rows)], x_classes, results, num_rows)
                continue
            if pool and (
                pool_rows + rows.size > _BATCH_ELEMENT_BUDGET
                or pool_classes + x_classes > _POOL_MAX_CLASSES
            ):
                _group_pool(pool, pool_classes, results, num_rows)
                pool, pool_classes, pool_rows = [], 0, 0
            left += pool_classes  # a fresh array: in_x[mask] copies
            pool.append((position, left, right, rows))
            pool_classes += x_classes
            pool_rows += rows.size
    finally:
        if scattered is not None:
            probe[scattered._indices] = -1
    if pool:
        _group_pool(pool, pool_classes, results, num_rows)
    return results  # type: ignore[return-value]
