"""Cross-checking incremental maintenance against full recomputation.

Used by the tests and ``Engine.verify()``: after every applied delta, the
maintained extents must be *exactly* the extents a from-scratch
materialization would produce (including after deletions — the case naive
insert-only maintenance gets wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.engine.evaluate import evaluate
from repro.materialize.delta import Row
from repro.materialize.store import MaterializedViewStore


@dataclass(frozen=True)
class ExtentMismatch:
    """One disagreement between a maintained and a recomputed extent."""

    view: str
    missing: FrozenSet[Row]  # rows the recompute has but the store lost
    spurious: FrozenSet[Row]  # rows the store kept but the recompute lacks

    def __str__(self) -> str:
        return (
            f"{self.view}: missing {sorted(self.missing, key=repr)[:5]} "
            f"spurious {sorted(self.spurious, key=repr)[:5]}"
        )


def recomputed_extents(store: MaterializedViewStore) -> Dict[str, FrozenSet[Row]]:
    """From-scratch extents of the store's views over its current base."""
    return {
        view.name: evaluate(view.definition, store.database) for view in store.views
    }


def verify_extents(store: MaterializedViewStore) -> List[ExtentMismatch]:
    """Differences between maintained and recomputed extents (empty = consistent)."""
    mismatches: List[ExtentMismatch] = []
    for name, expected in recomputed_extents(store).items():
        actual = store.extent(name)
        if actual != expected:
            mismatches.append(
                ExtentMismatch(name, expected - actual, actual - expected)
            )
    return mismatches


def assert_consistent(store: MaterializedViewStore) -> None:
    """Raise ``AssertionError`` with a readable diff if any extent is stale."""
    mismatches = verify_extents(store)
    assert not mismatches, "; ".join(str(m) for m in mismatches)
