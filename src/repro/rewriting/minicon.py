"""The MiniCon algorithm for view-based rewriting.

MiniCon improves on the bucket algorithm by reasoning, at candidate-creation
time, about *how* a view subgoal can participate in a rewriting rather than
merely *whether* it unifies with a query subgoal.  The unit of work is the
MiniCon description (MCD): a view together with

* the set of query subgoals it covers,
* the induced identifications among query variables (and bindings of query
  variables to constants), and
* the view atom — over query terms plus fresh variables — that represents the
  view's contribution to a rewriting.

MCD formation enforces the two MiniCon properties:

* **C1** — every distinguished (head) variable of the query occurring in a
  covered subgoal must land on a distinguished variable of the view (or on a
  constant), otherwise the value cannot be retrieved from the view;
* **C2** — if a query variable lands on an *existential* variable of the view,
  then every query subgoal mentioning that variable must be covered by the
  same MCD (the join on that variable can only happen inside the view).

The combination phase then assembles rewritings from sets of MCDs whose
covered subgoals partition the query body; by construction these rewritings
are contained in the query for comparison-free queries, so no per-candidate
containment check is required (the implementation still verifies by default,
and the E10 ablation measures the saving of switching verification off).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import UnsupportedFeatureError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution, unify_atoms
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.views import View, ViewSet
from repro.containment.containment import is_contained
from repro.rewriting.expansion import _CandidateExpander
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult


#: A slot of an MCD atom: how one view head argument is rendered in a rewriting.
#: ``("const", value)`` — a constant; ``("qvar", Variable)`` — a query variable;
#: ``("fresh", key)`` — a fresh variable private to the MCD (keyed so repeated
#: occurrences of the same view variable share the fresh variable).
Slot = Tuple[str, object]


@dataclass(frozen=True)
class MCD:
    """A MiniCon description: one view's potential contribution to a rewriting."""

    #: Name of the view.
    view: str
    #: Indices (into the query body) of the subgoals covered by this MCD.
    covered: FrozenSet[int]
    #: Rendering of the view's head arguments (see :data:`Slot`).
    slots: Tuple[Slot, ...]
    #: Pairs of query variables this MCD forces to be equal.
    merged_variables: Tuple[Tuple[Variable, Variable], ...] = ()
    #: Query variables this MCD forces to equal a constant.
    constant_bindings: Tuple[Tuple[Variable, Constant], ...] = ()

    def __str__(self) -> str:
        rendered = ", ".join(
            str(value) if kind != "fresh" else f"_{value}" for kind, value in self.slots
        )
        return f"MCD({self.view}({rendered}) covers {sorted(self.covered)})"


class MiniConRewriter:
    """The MiniCon algorithm.

    Parameters
    ----------
    views:
        The views available for rewriting.
    verify_rewritings:
        When true (default), every assembled rewriting is verified by
        expansion before being reported.  MiniCon's guarantee makes the check
        redundant for comparison-free queries and views; the flag exists so
        the ablation benchmark can measure its cost, and verification is
        forced on when comparisons are present (where it is required for
        soundness).
    max_rewritings:
        Optional cap on the number of rewritings assembled.
    candidate_filter:
        Optional ``(query, view) -> bool`` predicate consulted before MCD
        formation for each view; views it rejects are skipped entirely.  Used
        by the serving layer's view-relevance index to prune views that cannot
        contribute (see :mod:`repro.service.view_index`).
    """

    algorithm_name = "minicon"

    def __init__(
        self,
        views: "ViewSet | Iterable[View]",
        verify_rewritings: bool = True,
        max_rewritings: Optional[int] = None,
        candidate_filter: Optional["Callable[[ConjunctiveQuery, View], bool]"] = None,
    ):
        self.views = views if isinstance(views, ViewSet) else ViewSet(list(views))
        self.verify_rewritings = verify_rewritings
        self.max_rewritings = max_rewritings
        self.candidate_filter = candidate_filter

    # -- phase 1: MCD formation -----------------------------------------------
    def form_mcds(self, query: ConjunctiveQuery) -> List[MCD]:
        """All (minimal) MiniCon descriptions for the query over the views."""
        mcds: List[MCD] = []
        seen: set = set()
        for view in self.views:
            if self.candidate_filter is not None and not self.candidate_filter(query, view):
                continue
            definition = view.definition.freshened_against(query)
            for index, subgoal in enumerate(query.body):
                for view_subgoal in definition.body:
                    if view_subgoal.signature != subgoal.signature:
                        continue
                    seed = unify_atoms(subgoal, view_subgoal)
                    if seed is None:
                        continue
                    for theta, covered in self._close(query, definition, seed, frozenset({index})):
                        mcd = self._build_mcd(query, view, definition, theta, covered)
                        if mcd is None:
                            continue
                        key = (mcd.view, mcd.covered, mcd.slots, mcd.merged_variables,
                               mcd.constant_bindings)
                        if key not in seen:
                            seen.add(key)
                            mcds.append(mcd)
        return mcds

    def _close(
        self,
        query: ConjunctiveQuery,
        definition: ConjunctiveQuery,
        theta: Substitution,
        covered: FrozenSet[int],
    ) -> List[Tuple[Substitution, FrozenSet[int]]]:
        """Extend coverage until property C2 holds (branching over view subgoal choices)."""
        head_images = {theta.apply_term(a) for a in definition.head.args}
        violation: Optional[Tuple[Variable, int]] = None
        for index in sorted(covered):
            for var in query.body[index].variables():
                image = theta.apply_term(var)
                if isinstance(image, Constant) or image in head_images:
                    continue
                # `var` lands on an existential view variable: C2 requires every
                # query subgoal mentioning it to be covered here as well.
                for other_index, other in enumerate(query.body):
                    if other_index in covered:
                        continue
                    if var in other.variables():
                        violation = (var, other_index)
                        break
                if violation:
                    break
            if violation:
                break
        if violation is None:
            return [(theta, covered)]
        _, missing_index = violation
        closures: List[Tuple[Substitution, FrozenSet[int]]] = []
        target = query.body[missing_index]
        for view_subgoal in definition.body:
            if view_subgoal.signature != target.signature:
                continue
            extended = unify_atoms(target, view_subgoal, theta)
            if extended is None:
                continue
            closures.extend(
                self._close(query, definition, extended, covered | {missing_index})
            )
        return closures

    def _build_mcd(
        self,
        query: ConjunctiveQuery,
        view: View,
        definition: ConjunctiveQuery,
        theta: Substitution,
        covered: FrozenSet[int],
    ) -> Optional[MCD]:
        """Check validity and C1, then package the closure as an MCD (or return ``None``)."""
        # A rewriting can only enforce equalities between the view's
        # *distinguished* variables (by repeating an argument or using a
        # constant in the view atom).  If the unification needs two view
        # variables to coincide and either of them is existential — or needs an
        # existential view variable to equal a constant — no view tuple is
        # guaranteed to have a matching derivation, so the description is
        # invalid.
        view_head_vars = set(definition.head.variables())
        existential_view_vars = {
            v for v in definition.variables() if v not in view_head_vars
        }
        merged_view_vars: Dict[Term, List[Variable]] = {}
        for view_var in definition.variables():
            image = theta.apply_term(view_var)
            if isinstance(image, Constant):
                if view_var in existential_view_vars:
                    return None
                continue
            merged_view_vars.setdefault(image, []).append(view_var)
        for group in merged_view_vars.values():
            if len(group) > 1 and any(v in existential_view_vars for v in group):
                return None

        head_images = {theta.apply_term(a) for a in definition.head.args}
        query_head_vars = set(query.head.variables())

        covered_vars: List[Variable] = []
        for index in sorted(covered):
            for var in query.body[index].variables():
                if var not in covered_vars:
                    covered_vars.append(var)

        # C1: distinguished query variables must be retrievable from the view.
        for var in covered_vars:
            if var not in query_head_vars:
                continue
            image = theta.apply_term(var)
            if isinstance(image, Constant):
                continue
            if image not in head_images:
                return None

        # Group covered query variables by their image (equivalence classes).
        image_to_qvars: Dict[Term, List[Variable]] = {}
        constant_bindings: List[Tuple[Variable, Constant]] = []
        for var in covered_vars:
            image = theta.apply_term(var)
            if isinstance(image, Constant):
                constant_bindings.append((var, image))
            else:
                image_to_qvars.setdefault(image, []).append(var)
        merged: List[Tuple[Variable, Variable]] = []
        for group in image_to_qvars.values():
            anchor = group[0]
            for other in group[1:]:
                merged.append((anchor, other))

        # Render the view head arguments as slots.
        slots: List[Slot] = []
        fresh_keys: Dict[Term, int] = {}
        for head_arg in definition.head.args:
            image = theta.apply_term(head_arg)
            if isinstance(image, Constant):
                slots.append(("const", image))
            elif image in image_to_qvars:
                slots.append(("qvar", image_to_qvars[image][0]))
            else:
                key = fresh_keys.setdefault(image, len(fresh_keys))
                slots.append(("fresh", key))
        return MCD(
            view=view.name,
            covered=covered,
            slots=tuple(slots),
            merged_variables=tuple(merged),
            constant_bindings=tuple(constant_bindings),
        )

    # -- phase 2: combination -------------------------------------------------------
    def combine(
        self, query: ConjunctiveQuery, mcds: Sequence[MCD]
    ) -> Iterator[ConjunctiveQuery]:
        """Assemble rewritings from MCD sets that partition the query subgoals."""
        all_indices = frozenset(range(len(query.body)))
        by_first_index: Dict[int, List[MCD]] = {}
        for mcd in mcds:
            by_first_index.setdefault(min(mcd.covered), []).append(mcd)

        def search(uncovered: FrozenSet[int], chosen: List[MCD]) -> Iterator[Tuple[MCD, ...]]:
            if not uncovered:
                yield tuple(chosen)
                return
            pivot = min(uncovered)
            for mcd in by_first_index.get(pivot, []):
                if mcd.covered <= uncovered:
                    chosen.append(mcd)
                    yield from search(uncovered - mcd.covered, chosen)
                    chosen.pop()

        # One fresh-variable factory serves every combination: rebuilding the
        # reserved-name set per candidate was a measurable share of the cold
        # path, and fresh names only need to avoid the query's variables and
        # each other within a candidate (which a shared factory preserves).
        factory = FreshVariableFactory(
            reserved=[v.name for v in query.variables()], prefix="_MC"
        )
        for combination in search(all_indices, []):
            rewriting = self._assemble(query, combination, factory=factory)
            if rewriting is not None:
                yield rewriting

    def _assemble(
        self,
        query: ConjunctiveQuery,
        combination: Tuple[MCD, ...],
        base_indices: Iterable[int] = (),
        factory: Optional[FreshVariableFactory] = None,
    ) -> Optional[ConjunctiveQuery]:
        """Build the conjunctive rewriting for one MCD combination.

        ``base_indices`` lists query subgoals to keep as base-relation atoms in
        the rewriting body (used by partial rewritings, where the views cover
        only part of the query).  ``factory`` optionally supplies a shared
        fresh-variable factory (reserved against the query's variables).
        """
        # Union-find over query variables induced by the MCDs' merges.
        parent: Dict[Variable, Variable] = {}

        def find(var: Variable) -> Variable:
            parent.setdefault(var, var)
            while parent[var] != var:
                parent[var] = parent[parent[var]]
                var = parent[var]
            return var

        def union(left: Variable, right: Variable) -> None:
            left_root, right_root = find(left), find(right)
            if left_root != right_root:
                parent[right_root] = left_root

        constants: Dict[Variable, Constant] = {}
        for mcd in combination:
            for left, right in mcd.merged_variables:
                union(left, right)
            for var, constant in mcd.constant_bindings:
                constants[find(var)] = constant

        def resolve(term: Term) -> Term:
            if isinstance(term, Variable):
                root = find(term)
                return constants.get(root, root)
            return term

        # Conflicting constant bindings make the combination inconsistent.
        for var, constant in list(constants.items()):
            root = find(var)
            existing = constants.get(root)
            if existing is not None and existing != constant:
                return None
            constants[root] = constant

        if factory is None:
            factory = FreshVariableFactory(
                reserved=[v.name for v in query.variables()], prefix="_MC"
            )
        body: List[Atom] = []
        placed: set = set()
        for mcd_index, mcd in enumerate(combination):
            fresh_cache: Dict[int, Variable] = {}
            args: List[Term] = []
            for kind, value in mcd.slots:
                if kind == "const":
                    args.append(value)  # type: ignore[arg-type]
                elif kind == "qvar":
                    args.append(resolve(value))  # type: ignore[arg-type]
                else:
                    key = int(value)  # type: ignore[arg-type]
                    if key not in fresh_cache:
                        fresh_cache[key] = factory.fresh(f"_M{mcd_index}_{key}")
                    args.append(fresh_cache[key])
            atom = Atom(mcd.view, args)
            if atom not in placed:
                placed.add(atom)
                body.append(atom)

        for index in sorted(set(base_indices)):
            base_atom = query.body[index]
            resolved = base_atom.with_args(tuple(resolve(t) for t in base_atom.args))
            if resolved not in placed:
                placed.add(resolved)
                body.append(resolved)

        head = query.head.with_args(tuple(resolve(t) for t in query.head.args))
        visible = set()
        for atom in body:
            visible.update(atom.variables())
        comparisons = tuple(
            c.canonical()
            for c in (
                Comparison(resolve(c.left), c.op, resolve(c.right))
                for c in query.comparisons
            )
            if all(v in visible for v in c.variables())
        )
        return ConjunctiveQuery(head, body, comparisons, require_safe=False)

    # -- main entry point ------------------------------------------------------------
    def rewrite(self, query: ConjunctiveQuery) -> RewritingResult:
        """Run MCD formation and combination; return every assembled rewriting."""
        result = RewritingResult(query=query, views=self.views, algorithm=self.algorithm_name)
        verify = self.verify_rewritings
        has_comparisons = bool(query.comparisons) or any(
            v.definition.comparisons for v in self.views
        )
        if has_comparisons:
            verify = True  # verification is required for soundness with comparisons
        mcds = self.form_mcds(query)
        if not mcds:
            return result
        # Candidate dedup (up to renaming / subgoal order).  The expensive
        # canonical form is only computed when a cheap renaming-invariant
        # key — head signature and constants, body predicate multiset,
        # comparison operator multiset — collides; for typical workloads
        # most combinations are already distinct at the invariant level, so
        # most candidates never canonicalize at all.
        seen: Dict[tuple, List[ConjunctiveQuery]] = {}
        expander = _CandidateExpander(self.views, reserved=query.variables())
        for candidate in self.combine(query, mcds):
            if self.max_rewritings is not None and len(result.rewritings) >= self.max_rewritings:
                break
            result.candidates_examined += 1
            prekey = (
                candidate.head.predicate,
                len(candidate.head.args),
                candidate.head.const_positions,
                tuple(sorted(atom.predicate for atom in candidate.body)),
                tuple(sorted(c.op.value for c in candidate.comparisons)),
            )
            bucket = seen.setdefault(prekey, [])
            if bucket:
                canonical = candidate.canonical()
                if any(canonical == other.canonical() for other in bucket):
                    continue
            bucket.append(candidate)
            # One unfolding serves the soundness check, the completeness
            # check and the result record, view atoms shared with earlier
            # candidates are not unfolded again, and the soundness direction
            # doubles as the forward half of the equivalence test, so each
            # candidate needs at most one containment search per direction.
            # An unsatisfiable expansion is vacuously sound and never
            # complete, matching the verify.py semantics.
            expansion = expander.expand(candidate)
            forward = expansion is not None and is_contained(expansion, query)
            if verify and expansion is not None and not forward:
                continue
            kind = (
                RewritingKind.EQUIVALENT
                if forward and is_contained(query, expansion)
                else RewritingKind.CONTAINED
            )
            result.rewritings.append(
                Rewriting(
                    query=candidate,
                    kind=kind,
                    algorithm=self.algorithm_name,
                    views_used=tuple(dict.fromkeys(a.predicate for a in candidate.body)),
                    expansion=expansion,
                )
            )
        return result
