"""Seeded workload inputs.

The library workloads take a fixed base relation and let ``--seed``
choose an *isomorphic* copy of it: the rows are shuffled and every
column's values are relabelled by a seeded permutation.  Dependencies,
keys and every deterministic counter of TANE are invariant under both,
so each seed is a different input with the same amount of work and the
same cover (pinned in ``pinned.json``).  A different cost per seed would
show up as run-to-run spread and hide real changes.

The wide-lattice input is ``twin_relation`` drawn with the seed itself:
its cover (``d_i <-> r_i``) and counters do not depend on the draw.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.replicate import replicate_with_unique_suffix
from repro.datasets.synthetic import twin_relation
from repro.datasets.uci import make_adult_like, make_wisconsin_like
from repro.model.relation import Relation

__all__ = ["isomorphic_copy", "library_input", "service_inputs", "edited", "to_csv"]

# Rows of the wisconsin-shaped inputs: the paper's Table 1 shape (699 x
# 144 = 100,656 rows) and a 15-copy relation for the measure workload.
TALL_COPIES = 144
PDEP_COPIES = 15
SERVICE_COPIES = 8
ADULT_ROWS = 5000
TWIN_PAIRS = 10
TWIN_ROWS = 300


def isomorphic_copy(relation: Relation, seed: int) -> Relation:
    """Shuffle rows and relabel each column's values, both seeded."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(relation.num_rows)
    columns = []
    for attribute in range(relation.num_attributes):
        codes = relation.column_codes(attribute)
        domain = int(codes.max()) + 1 if codes.size else 1
        columns.append(rng.permutation(domain)[codes[order]])
    return Relation.from_codes(columns, relation.schema.attribute_names)


def _wisconsin(copies: int, seed: int) -> Relation:
    """``copies`` concatenated copies of a seeded isomorphic wisconsin.

    The seed acts on the 699-row base before replication, so the input
    keeps the paper's layout (copies concatenated, each with its own
    values): shuffling the replicated rows instead scatters every class
    over the whole array and slows the products by about a fifth.
    """
    base = isomorphic_copy(make_wisconsin_like(seed=0), seed)
    return replicate_with_unique_suffix(base, copies)


def library_input(workload: str, seed: int) -> Relation:
    """The relation one library workload discovers over."""
    if workload in ("tall-exact", "afd-pdep-par"):
        return _wisconsin(TALL_COPIES if workload == "tall-exact" else PDEP_COPIES, seed)
    if workload == "wide-lattice":
        return twin_relation(TWIN_PAIRS, num_rows=TWIN_ROWS, seed=seed)
    raise ValueError(f"not a library workload: {workload}")


def service_inputs(seed: int) -> dict[str, Relation]:
    """The two datasets the service workload registers."""
    return {
        "wisconsin": _wisconsin(SERVICE_COPIES, seed),
        "adult": isomorphic_copy(make_adult_like(seed=0, num_rows=ADULT_ROWS), seed + 1),
    }


def edited(relation: Relation, seed: int, cells: int = 4) -> Relation:
    """A small seeded edit: ``cells`` values copied from other rows."""
    rng = np.random.default_rng([seed, 7])
    columns = [relation.column_codes(a).copy() for a in range(relation.num_attributes)]
    for _ in range(cells):
        attribute = int(rng.integers(relation.num_attributes))
        target, source = rng.choice(relation.num_rows, size=2, replace=False)
        columns[attribute][target] = columns[attribute][source]
    return Relation.from_codes(columns, relation.schema.attribute_names)


def to_csv(relation: Relation) -> str:
    """CSV text with a header row; values are the integer codes."""
    names = relation.schema.attribute_names
    matrix = np.stack([relation.column_codes(a) for a in range(len(names))], axis=1)
    lines = [",".join(names)]
    lines.extend(",".join(map(str, row)) for row in matrix.tolist())
    return "\n".join(lines) + "\n"
