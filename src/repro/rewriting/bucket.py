"""The bucket algorithm for view-based rewriting.

The bucket algorithm (from the Information Manifold line of work that the
PODS'95 paper initiated) finds contained — and, when they exist, equivalent —
rewritings in two phases:

1. **Bucket creation.**  For every query subgoal ``g``, collect the view atoms
   that could "cover" ``g``: a view ``V`` contributes an atom whenever some
   subgoal of ``V`` unifies with ``g`` such that every distinguished variable
   of the query occurring in ``g`` lands on a distinguished variable (or a
   constant) of ``V``.
2. **Combination.**  Every element of the Cartesian product of the buckets is
   a candidate rewriting (one covering atom per query subgoal, duplicates
   merged).  Each candidate is verified by expansion: candidates whose
   expansion is contained in the query are contained rewritings; those whose
   expansion is equivalent are complete rewritings.

The algorithm is complete for finding the maximally-contained union of
conjunctive rewritings over the views (for comparison-free queries), but the
Cartesian-product phase inspects many candidates that verification then
rejects — exactly the inefficiency that MiniCon's MCDs were designed to
avoid, and that the E10 ablation benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution, unify_atoms
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.views import View, ViewSet
from repro.containment.containment import is_contained
from repro.containment.minimize import minimize
from repro.rewriting.expansion import _CandidateExpander
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult


@dataclass(frozen=True)
class BucketEntry:
    """One candidate covering atom for a query subgoal."""

    #: The view atom placed in the bucket (arguments in query-variable terms).
    atom: Atom
    #: The name of the view the atom ranges over.
    view: str
    #: The query subgoal this entry was created for (index into the query body).
    subgoal_index: int


@dataclass
class Bucket:
    """The bucket of one query subgoal: every view atom that may cover it."""

    subgoal: Atom
    subgoal_index: int
    entries: List[BucketEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[BucketEntry]:
        return iter(self.entries)

    def is_empty(self) -> bool:
        return not self.entries


class BucketRewriter:
    """Two-phase bucket algorithm.

    Parameters
    ----------
    views:
        The views available for rewriting.
    max_candidates:
        Safety cap on the number of Cartesian-product combinations examined;
        ``None`` means unlimited.  When the cap is reached the result's
        ``candidates_examined`` equals the cap and the maximally-contained
        union may be incomplete.
    candidate_filter:
        Optional ``(query, view) -> bool`` predicate consulted once per view
        during bucket creation; views it rejects are skipped.  Used by the
        serving layer's view-relevance index (see
        :mod:`repro.service.view_index`).
    """

    algorithm_name = "bucket"

    def __init__(
        self,
        views: "ViewSet | Iterable[View]",
        max_candidates: Optional[int] = None,
        candidate_filter: Optional["Callable[[ConjunctiveQuery, View], bool]"] = None,
    ):
        self.views = views if isinstance(views, ViewSet) else ViewSet(list(views))
        self.max_candidates = max_candidates
        self.candidate_filter = candidate_filter

    # -- phase 1: bucket creation ------------------------------------------------
    def build_buckets(self, query: ConjunctiveQuery) -> List[Bucket]:
        """Create one bucket per query subgoal."""
        buckets: List[Bucket] = []
        head_vars = set(query.head.variables())
        usable_views = [
            view
            for view in self.views
            if self.candidate_filter is None or self.candidate_filter(query, view)
        ]
        for index, subgoal in enumerate(query.body):
            bucket = Bucket(subgoal=subgoal, subgoal_index=index)
            for view in usable_views:
                bucket.entries.extend(
                    self._entries_for(query, subgoal, index, view, head_vars)
                )
            buckets.append(bucket)
        return buckets

    def _entries_for(
        self,
        query: ConjunctiveQuery,
        subgoal: Atom,
        subgoal_index: int,
        view: View,
        head_vars: set,
    ) -> List[BucketEntry]:
        entries: List[BucketEntry] = []
        seen_atoms: set = set()
        renamed_definition = view.definition.freshened_against(query)
        renamed_head_args = renamed_definition.head.args
        for view_subgoal in renamed_definition.body:
            if view_subgoal.signature != subgoal.signature:
                continue
            unifier = unify_atoms(subgoal, view_subgoal)
            if unifier is None:
                continue
            if not self._distinguished_condition(
                subgoal, head_vars, renamed_head_args, unifier
            ):
                continue
            atom = self._bucket_atom(view, renamed_head_args, unifier, query, subgoal_index)
            if atom not in seen_atoms:
                seen_atoms.add(atom)
                entries.append(
                    BucketEntry(atom=atom, view=view.name, subgoal_index=subgoal_index)
                )
        return entries

    @staticmethod
    def _distinguished_condition(
        subgoal: Atom,
        head_vars: set,
        view_head_args: Tuple[Term, ...],
        unifier: Substitution,
    ) -> bool:
        """Every query head variable in the subgoal must land on a view head term."""
        view_head_images = {unifier.apply_term(t) for t in view_head_args}
        for var in subgoal.variables():
            if var not in head_vars:
                continue
            image = unifier.apply_term(var)
            if isinstance(image, Constant):
                continue
            if image not in view_head_images:
                return False
        return True

    @staticmethod
    def _bucket_atom(
        view: View,
        view_head_args: Tuple[Term, ...],
        unifier: Substitution,
        query: ConjunctiveQuery,
        subgoal_index: int,
    ) -> Atom:
        """The bucket-entry atom, expressed over query terms plus fresh variables.

        A view head argument that the unifier ties (possibly transitively) to a
        query term is rendered as that query term; arguments left untouched
        (they only constrain parts of the view irrelevant to this subgoal)
        become fresh variables unique to this entry.
        """
        # The unifier's representatives may be view variables even when the
        # class contains a query variable, so build a reverse map from
        # representative to query variable first.
        image_to_query_var: Dict[Term, Variable] = {}
        for var in query.variables():
            image = unifier.apply_term(var)
            if not isinstance(image, Constant):
                image_to_query_var.setdefault(image, var)
        factory = FreshVariableFactory(
            reserved=[v.name for v in query.variables()],
            prefix=f"_B{subgoal_index}_",
        )
        fresh_for: Dict[Term, Variable] = {}
        args: List[Term] = []
        for head_arg in view_head_args:
            image = unifier.apply_term(head_arg)
            if isinstance(image, Constant):
                args.append(image)
            elif image in image_to_query_var:
                args.append(image_to_query_var[image])
            else:
                if image not in fresh_for:
                    fresh_for[image] = factory.fresh()
                args.append(fresh_for[image])
        return Atom(view.name, args)

    # -- phase 2: combination ----------------------------------------------------
    def _attach_comparisons(
        self, query: ConjunctiveQuery, body: Sequence[Atom]
    ) -> Tuple[Comparison, ...]:
        visible = set()
        for atom in body:
            visible.update(atom.variables())
        return tuple(
            c for c in query.comparisons if all(v in visible for v in c.variables())
        )

    def _combinations(self, buckets: List[Bucket]) -> Iterator[Tuple[BucketEntry, ...]]:
        """Lazily enumerate the Cartesian product of the buckets."""
        if any(b.is_empty() for b in buckets):
            return

        def recurse(index: int, chosen: List[BucketEntry]) -> Iterator[Tuple[BucketEntry, ...]]:
            if index == len(buckets):
                yield tuple(chosen)
                return
            for entry in buckets[index].entries:
                chosen.append(entry)
                yield from recurse(index + 1, chosen)
                chosen.pop()

        yield from recurse(0, [])

    def rewrite(self, query: ConjunctiveQuery) -> RewritingResult:
        """Run both phases and return every verified rewriting."""
        result = RewritingResult(query=query, views=self.views, algorithm=self.algorithm_name)
        buckets = self.build_buckets(query)
        if any(b.is_empty() for b in buckets):
            return result
        head_vars = set(query.head.variables())
        seen_bodies: set = set()
        expander = _CandidateExpander(self.views, reserved=query.variables())
        for combination in self._combinations(buckets):
            if (
                self.max_candidates is not None
                and result.candidates_examined >= self.max_candidates
            ):
                break
            result.candidates_examined += 1
            body: List[Atom] = []
            for entry in combination:
                if entry.atom not in body:
                    body.append(entry.atom)
            covered_vars = set()
            for atom in body:
                covered_vars.update(atom.variables())
            if not head_vars <= covered_vars:
                continue
            candidate = ConjunctiveQuery(
                query.head,
                body,
                self._attach_comparisons(query, body),
                require_safe=False,
            )
            key = candidate.canonical()
            if key in seen_bodies:
                continue
            seen_bodies.add(key)
            for repaired, expansion in self._contained_variants(candidate, query, expander):
                repaired_key = repaired.canonical()
                if repaired_key in seen_bodies and repaired_key != key:
                    continue
                seen_bodies.add(repaired_key)
                # The expansion is already known to be contained in the query
                # (vacuously when unsatisfiable, which is never complete).
                kind = (
                    RewritingKind.EQUIVALENT
                    if expansion is not None and is_contained(query, expansion)
                    else RewritingKind.CONTAINED
                )
                result.rewritings.append(
                    Rewriting(
                        query=repaired,
                        kind=kind,
                        algorithm=self.algorithm_name,
                        views_used=tuple(
                            dict.fromkeys(a.predicate for a in repaired.body)
                        ),
                        expansion=expansion,
                    )
                )
        return result

    def _contained_variants(
        self,
        candidate: ConjunctiveQuery,
        query: ConjunctiveQuery,
        expander: _CandidateExpander,
    ) -> List[Tuple[ConjunctiveQuery, Optional[ConjunctiveQuery]]]:
        """Contained rewritings obtainable from one Cartesian-product candidate.

        Each is paired with its expansion (``None`` when unsatisfiable, which
        is vacuously contained).  The candidate itself is used when its
        expansion is already contained in the query.  Otherwise the classical
        "add equality constraints" repair step applies: a containment mapping
        from the candidate's expansion into the query suggests how the
        candidate's variables (in particular the fresh ones) must be equated
        with query terms; the specialized candidate is then re-verified.
        """
        expansion = expander.expand(candidate)
        if expansion is None or is_contained(expansion, query):
            return [(candidate, expansion)]
        variants: List[Tuple[ConjunctiveQuery, Optional[ConjunctiveQuery]]] = []
        seen: set = set()
        candidate_vars = set()
        for atom in candidate.body:
            candidate_vars.update(atom.variables())
        query_vars = set(query.variables())
        head_vars = set(query.head.variables())
        all_terms = (
            query_vars
            | candidate_vars
            | set(expansion.variables())
            | set(query.constants())
        )
        for unifier in self._unification_matches(query, expansion):
            bindings = self._extract_equalities(
                unifier, all_terms, candidate_vars, query_vars, head_vars
            )
            if bindings is None or not bindings:
                continue
            specialization = Substitution(bindings)
            specialized_body: List[Atom] = []
            for atom in candidate.body:
                image = specialization.apply_atom(atom)
                if image not in specialized_body:
                    specialized_body.append(image)
            specialized = ConjunctiveQuery(
                candidate.head,
                specialized_body,
                specialization.apply_comparisons(candidate.comparisons),
                require_safe=False,
            )
            key = specialized.canonical()
            if key in seen:
                continue
            seen.add(key)
            repaired = expander.expand(specialized)
            if repaired is None or is_contained(repaired, query):
                minimal = minimize(specialized)
                variants.append((minimal, expander.expand(minimal)))
        return variants

    @staticmethod
    def _extract_equalities(
        unifier: Substitution,
        all_terms: set,
        candidate_vars: set,
        query_vars: set,
        head_vars: set,
    ) -> Optional[Dict[Variable, Term]]:
        """Turn a unification match into equality constraints on the candidate.

        Terms identified by the unifier form equivalence classes.  Each
        candidate variable is bound to a preferred member of its class (a
        distinguished query variable if possible, then any query term, then a
        constant).  Classes that merge two distinct distinguished variables or
        a distinguished variable with a constant are rejected — such a match
        describes a rewriting with a different head, not a specialization of
        this candidate.  Returns ``None`` to reject, or the binding map.
        """
        groups: Dict[Term, List[Term]] = {}
        for term in all_terms:
            groups.setdefault(unifier.apply_term(term), []).append(term)
        bindings: Dict[Variable, Term] = {}
        for members in groups.values():
            distinguished = [m for m in members if m in head_vars]
            constants = [m for m in members if isinstance(m, Constant)]
            if len(distinguished) > 1 or (distinguished and constants):
                return None
            if len(constants) > 1:
                return None
            target: Optional[Term] = None
            if distinguished:
                target = distinguished[0]
            elif constants:
                target = constants[0]
            else:
                plain_query_vars = [
                    m for m in members if isinstance(m, Variable) and m in query_vars
                ]
                plain_candidate_vars = [
                    m for m in members if isinstance(m, Variable) and m in candidate_vars
                ]
                if plain_query_vars:
                    target = plain_query_vars[0]
                elif plain_candidate_vars:
                    target = plain_candidate_vars[0]
            if target is None:
                continue
            for member in members:
                if member in candidate_vars and isinstance(member, Variable) and member != target:
                    bindings[member] = target
        return bindings

    @staticmethod
    def _unification_matches(
        query: ConjunctiveQuery,
        expansion: ConjunctiveQuery,
        limit: int = 64,
    ) -> Iterator[Substitution]:
        """Two-way matches of the query body against a candidate's expansion.

        Unlike a containment mapping, the match is computed by *unification*:
        variables on both sides may be bound.  Bindings of the candidate's own
        variables (in particular the fresh bucket variables) are the equality
        constraints the classical bucket algorithm adds in its second phase;
        the caller extracts them and re-verifies the specialized candidate, so
        over-general matches are harmless.
        """
        count = 0

        def extend(index: int, substitution: Substitution) -> Iterator[Substitution]:
            nonlocal count
            if count >= limit:
                return
            if index == len(query.body):
                count += 1
                yield substitution
                return
            subgoal = query.body[index]
            for target in expansion.body:
                if target.signature != subgoal.signature:
                    continue
                unified = unify_atoms(subgoal, target, substitution)
                if unified is not None:
                    yield from extend(index + 1, unified)

        seed = unify_atoms(query.head, expansion.head)
        if seed is None:
            return
        yield from extend(0, seed)
