"""Correctness checks by direct row grouping, independent of the engine.

A returned dependency ``X -> A`` is checked by grouping the rows on
``X`` and on ``X ∪ {A}`` with ``numpy.unique``: an exact dependency
holds when both groupings have the same number of groups, a ``pdep``
dependency when ``1 - pdep(X -> A) <= epsilon``.  Minimality is checked
on every immediate subset ``X \\ {B}``, which suffices because both
criteria are monotone in ``X``.  Keys are checked to be unique and
minimal the same way.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.model.relation import Relation

__all__ = ["Grouper", "cover_digest", "check_cover"]

# Float slack of the pdep comparison; the program itself compares
# ``error <= epsilon + 1e-12``.
_SLACK = 1e-9


class Grouper:
    """Memoized group ids of attribute sets of one relation."""

    def __init__(self, relation: Relation) -> None:
        self.n = relation.num_rows
        self._columns = [relation.column_codes(a) for a in range(relation.num_attributes)]
        self._ids: dict[tuple[int, ...], tuple[np.ndarray, int]] = {
            (): (np.zeros(self.n, dtype=np.int32), 1 if self.n else 0)
        }

    def ids(self, attributes) -> tuple[np.ndarray, int]:
        """``(group id per row, number of groups)`` for a set of attributes."""
        key = tuple(sorted(attributes))
        cached = self._ids.get(key)
        if cached is not None:
            return cached
        prefix, groups = self.ids(key[:-1])
        column = self._columns[key[-1]].astype(np.int64)
        combined = prefix.astype(np.int64) * (int(column.max()) + 1) + column
        _values, inverse = np.unique(combined, return_inverse=True)
        # int32 ids: the memo holds one array per attribute set checked.
        result = (inverse.astype(np.int32).reshape(-1), int(inverse.max()) + 1 if self.n else 0)
        self._ids[key] = result
        return result

    def holds_exactly(self, lhs, rhs: int) -> bool:
        return self.ids(lhs)[1] == self.ids(tuple(lhs) + (rhs,))[1]

    def pdep_error(self, lhs, rhs: int) -> float:
        """``1 - pdep(X -> A)`` computed from the row groups."""
        lhs_ids, lhs_groups = self.ids(lhs)
        whole_ids, whole_groups = self.ids(tuple(lhs) + (rhs,))
        lhs_sizes = np.bincount(lhs_ids, minlength=lhs_groups).astype(np.float64)
        whole_sizes = np.bincount(whole_ids, minlength=whole_groups).astype(np.float64)
        parent = np.empty(whole_groups, dtype=np.int64)
        parent[whole_ids] = lhs_ids
        pdep = float((whole_sizes * whole_sizes / lhs_sizes[parent]).sum()) / self.n
        return 1.0 - pdep


def cover_digest(dependencies, keys, names) -> str:
    """sha256 of a cover's canonical text: one sorted line per FD and key."""
    lines = [
        "fd " + ",".join(names[a] for a in sorted(lhs)) + " -> " + names[rhs]
        for lhs, rhs in dependencies
    ]
    lines.extend("key " + ",".join(names[a] for a in sorted(key)) for key in keys)
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def check_cover(
    relation: Relation,
    dependencies,
    keys,
    *,
    measure: str = "g3",
    epsilon: float = 0.0,
) -> list[str]:
    """Problems found in a cover (empty when every FD and key checks out).

    ``dependencies`` are ``(lhs attribute tuple, rhs index)`` pairs,
    ``keys`` attribute tuples.  Supports exact discovery and ``pdep``.
    """
    if epsilon > 0.0 and measure != "pdep":
        raise ValueError(f"direct check supports exact or pdep, not {measure}")
    grouper = Grouper(relation)
    names = relation.schema.attribute_names

    def valid(lhs, rhs) -> bool:
        if epsilon == 0.0:
            return grouper.holds_exactly(lhs, rhs)
        return grouper.pdep_error(lhs, rhs) <= epsilon + _SLACK

    problems = []
    for lhs, rhs in dependencies:
        label = f"{[names[a] for a in lhs]} -> {names[rhs]}"
        if rhs in lhs:
            problems.append(f"trivial {label}")
        elif not valid(lhs, rhs):
            problems.append(f"does not hold: {label}")
        else:
            for dropped in lhs:
                smaller = tuple(a for a in lhs if a != dropped)
                if valid(smaller, rhs):
                    problems.append(f"not minimal: {label} (drop {names[dropped]})")
                    break
    for key in keys:
        if grouper.ids(key)[1] != grouper.n:
            problems.append(f"not a key: {[names[a] for a in key]}")
        elif any(grouper.ids(tuple(a for a in key if a != b))[1] == grouper.n for b in key):
            problems.append(f"key not minimal: {[names[a] for a in key]}")
    return problems
