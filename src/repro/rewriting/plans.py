"""Rewriting containers: what an algorithm returns and how it is justified."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.views import ViewSet


class RewritingKind(enum.Enum):
    """How a rewriting relates to the original query."""

    #: The expansion of the rewriting is equivalent to the query.
    EQUIVALENT = "equivalent"
    #: The expansion of the rewriting is contained in the query.
    CONTAINED = "contained"
    #: A union of contained rewritings that is maximal among view-only plans.
    MAXIMALLY_CONTAINED = "maximally_contained"
    #: An equivalent rewriting that still uses some base relations.
    PARTIAL = "partial"


@dataclass(frozen=True)
class Rewriting:
    """A single rewriting produced by one of the algorithms.

    Attributes
    ----------
    query:
        The rewriting itself — a conjunctive query (or union) whose body atoms
        are over view predicates (plus base predicates for partial plans).
    expansion:
        The unfolding of ``query`` over the view definitions; ``None`` only
        for datalog-style rewritings that have no finite unfolding.
    kind:
        How the rewriting relates to the original query.
    algorithm:
        Name of the algorithm that produced it (``"exhaustive"``, ``"bucket"``,
        ``"minicon"``, ``"inverse-rules"``).
    views_used:
        Names of the views referenced by the rewriting.
    """

    query: Union[ConjunctiveQuery, UnionQuery]
    kind: RewritingKind
    algorithm: str
    views_used: Tuple[str, ...] = ()
    expansion: Union[ConjunctiveQuery, UnionQuery, None] = None

    @property
    def is_equivalent(self) -> bool:
        return self.kind in (RewritingKind.EQUIVALENT, RewritingKind.PARTIAL)

    def disjuncts(self) -> Tuple[ConjunctiveQuery, ...]:
        """The conjunctive rewritings making up this plan."""
        if isinstance(self.query, UnionQuery):
            return self.query.disjuncts
        return (self.query,)

    def size(self) -> int:
        """Total number of subgoals across disjuncts (plan size)."""
        return sum(q.size() for q in self.disjuncts())

    def __str__(self) -> str:
        header = f"-- {self.kind.value} rewriting ({self.algorithm})"
        return f"{header}\n{self.query}"


@dataclass
class RewritingResult:
    """The full outcome of a rewriting request.

    ``rewritings`` holds every rewriting found (possibly none).  ``best`` is
    the preferred one under the request's mode: the smallest equivalent
    rewriting when one exists, otherwise the maximally-contained plan if it
    was requested.
    """

    query: ConjunctiveQuery
    views: ViewSet
    algorithm: str
    rewritings: List[Rewriting] = field(default_factory=list)
    #: Wall-clock seconds spent searching (filled by the front door).
    elapsed: float = 0.0
    #: Number of candidate rewritings examined (algorithm-specific meaning).
    candidates_examined: int = 0

    @property
    def best(self) -> Optional[Rewriting]:
        equivalents = [r for r in self.rewritings if r.kind is RewritingKind.EQUIVALENT]
        if equivalents:
            return min(equivalents, key=lambda r: r.size())
        partials = [r for r in self.rewritings if r.kind is RewritingKind.PARTIAL]
        if partials:
            return min(partials, key=lambda r: r.size())
        maximal = [r for r in self.rewritings if r.kind is RewritingKind.MAXIMALLY_CONTAINED]
        if maximal:
            return maximal[0]
        contained = [r for r in self.rewritings if r.kind is RewritingKind.CONTAINED]
        if contained:
            return min(contained, key=lambda r: r.size())
        return None

    @property
    def has_equivalent(self) -> bool:
        return any(r.kind is RewritingKind.EQUIVALENT for r in self.rewritings)

    def equivalent_rewritings(self) -> List[Rewriting]:
        return [r for r in self.rewritings if r.kind is RewritingKind.EQUIVALENT]

    def __bool__(self) -> bool:
        return bool(self.rewritings)

    def __len__(self) -> int:
        return len(self.rewritings)
