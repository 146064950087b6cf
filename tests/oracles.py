"""Reference implementations the optimized library code is tested against.

None of these is reachable from ``src/``: a test substitutes them for the
optimized paths with pytest's ``monkeypatch`` when it wants the reference
behaviour, and compares.

* :func:`naive_homomorphisms` — plain backtracking with a static subgoal
  order and immutable substitutions; the indexed search in
  :mod:`repro.containment.homomorphism` must enumerate exactly the same
  mappings, multiplicity included.
* :func:`general_expand_atom` — unfolding a view atom by renaming the whole
  definition apart and unifying its head, the path
  :func:`repro.rewriting.expansion.expand_atom` only takes for heads with a
  repeated variable or a constant.
* :func:`reference_maximally_contained` — ``rewrite(query, views, "minicon",
  "maximally-contained")`` as the original implementation ran it: naive
  search, no containment memo, general unfolding, every candidate verified
  and classified through :mod:`repro.rewriting.verify`, and the union from a
  second, separate generator run.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.containment import homomorphism
from repro.containment.homomorphism import _head_seed
from repro.containment.memo import memo_disabled
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution, match_atom, unify_terms
from repro.datalog.views import View, ViewSet
from repro.rewriting import candidates, expansion
from repro.rewriting.contained import maximally_contained_rewriting
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.rewriting.verify import is_complete_rewriting, is_contained_rewriting


def naive_homomorphisms(
    source_atoms: Sequence[Atom],
    target_atoms: Sequence[Atom],
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """The reference backtracking enumeration (static order, immutable bindings)."""
    seed = seed if seed is not None else Substitution.empty()

    # Pre-compute candidate target atoms per source atom (by predicate/arity).
    options_per_atom: List[List[Atom]] = []
    for atom in source_atoms:
        options = [t for t in target_atoms if t.signature == atom.signature]
        options_per_atom.append(options)
        if not options:
            return

    # Map the most constrained subgoals first.
    order = sorted(range(len(source_atoms)), key=lambda i: len(options_per_atom[i]))

    def extend(position: int, substitution: Substitution) -> Iterator[Substitution]:
        if position == len(order):
            yield substitution
            return
        index = order[position]
        atom = source_atoms[index]
        for target in options_per_atom[index]:
            extended = match_atom(atom, target, substitution)
            if extended is not None:
                yield from extend(position + 1, extended)

    yield from extend(0, seed)


def naive_containment_mappings(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Iterator[Substitution]:
    """All containment mappings, enumerated by :func:`naive_homomorphisms`."""
    seed = _head_seed(source, target)
    if seed is None:
        return
    yield from naive_homomorphisms(source.body, target.body, seed)


def use_naive_search(monkeypatch: pytest.MonkeyPatch) -> None:
    """Route every containment-mapping search through the naive oracle."""
    monkeypatch.setattr(homomorphism, "homomorphisms", naive_homomorphisms)
    monkeypatch.setattr(candidates, "homomorphisms", naive_homomorphisms)


def general_expand_atom(
    atom: Atom, view: View, factory: FreshVariableFactory
) -> Optional[Tuple[Tuple[Atom, ...], Tuple[Comparison, ...]]]:
    """:func:`~repro.rewriting.expansion.expand_atom` by rename-then-unify only."""
    definition = view.definition
    renaming = Substitution({var: factory.fresh(var.name) for var in definition.variables()})
    body = renaming.apply_atoms(view.body)
    comparisons = renaming.apply_comparisons(definition.comparisons)
    unifier: Optional[Substitution] = Substitution.empty()
    for head_term, atom_term in zip(view.head.args, atom.args):
        unifier = unify_terms(renaming.apply_term(head_term), atom_term, unifier)
        if unifier is None:
            return None
    return unifier.apply_atoms(body), unifier.apply_comparisons(comparisons)


def reference_minicon_rewrite(
    rewriter: MiniConRewriter, query: ConjunctiveQuery
) -> RewritingResult:
    """MiniCon's generator with per-check verification: the soundness check,
    the completeness check and the result record each unfold the candidate
    on their own."""
    views = rewriter.views
    result = RewritingResult(query=query, views=views, algorithm=rewriter.algorithm_name)
    seen = set()
    for candidate in rewriter.combine(query, rewriter.form_mcds(query)):
        result.candidates_examined += 1
        canonical = candidate.canonical()
        if canonical in seen:
            continue
        seen.add(canonical)
        if not is_contained_rewriting(candidate, query, views):
            continue
        kind = (
            RewritingKind.EQUIVALENT
            if is_complete_rewriting(candidate, query, views)
            else RewritingKind.CONTAINED
        )
        result.rewritings.append(
            Rewriting(
                query=candidate,
                kind=kind,
                algorithm=rewriter.algorithm_name,
                views_used=tuple(dict.fromkeys(a.predicate for a in candidate.body)),
                expansion=expansion.expand_query(candidate, views),
            )
        )
    return result


def reference_maximally_contained(
    query: ConjunctiveQuery, views: ViewSet
) -> RewritingResult:
    """``rewrite(query, views, "minicon", "maximally-contained")``, computed
    by the reference pipeline described in the module docstring."""
    with pytest.MonkeyPatch.context() as monkeypatch, memo_disabled():
        use_naive_search(monkeypatch)
        monkeypatch.setattr(expansion, "expand_atom", general_expand_atom)
        monkeypatch.setattr(expansion, "cached_expand_query", expansion.expand_query)
        monkeypatch.setattr(MiniConRewriter, "rewrite", reference_minicon_rewrite)
        result = MiniConRewriter(views).rewrite(query)
        union = maximally_contained_rewriting(query, views, algorithm="minicon")
    if union is not None:
        result.rewritings.append(union)
    return result
