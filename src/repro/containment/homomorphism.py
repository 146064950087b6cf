"""Containment mappings (homomorphisms) between conjunctive queries.

A *containment mapping* from query ``Q2`` to query ``Q1`` is a substitution
``h`` on the variables of ``Q2`` such that

* ``h`` maps the head of ``Q2`` onto the head of ``Q1`` (argument by
  argument), and
* every body subgoal of ``Q2`` is mapped by ``h`` onto some body subgoal of
  ``Q1``.

By the Chandra–Merlin theorem, for pure conjunctive queries ``Q1 ⊑ Q2`` holds
iff such a mapping exists.

The search builds a per-(predicate, arity) candidate index over the target,
fail-fasts on the atoms' precomputed constant signatures, runs over one
mutable binding dictionary with undo-on-backtrack (no per-step
:class:`Substitution` copies), and picks the *most constrained* unmapped
subgoal dynamically at every step — which doubles as forward checking:
binding a shared variable shrinks the candidate lists of every subgoal
mentioning it, and an empty list fails the branch at once.  It enumerates one
mapping per consistent assignment of source atoms to target atoms; the test
suite checks it mapping for mapping against a plain backtracking oracle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution, match_atom
from repro.datalog.terms import Term, Variable


def _head_seed(source: ConjunctiveQuery, target: ConjunctiveQuery) -> Optional[Substitution]:
    """The substitution forced by mapping source's head onto target's head."""
    if source.head.predicate != target.head.predicate:
        return None
    if len(source.head.args) != len(target.head.args):
        return None
    return match_atom(source.head, target.head)


def homomorphisms(
    source_atoms: Sequence[Atom],
    target_atoms: Sequence[Atom],
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions mapping every atom of ``source_atoms`` into ``target_atoms``.

    ``seed`` fixes the image of some variables in advance (typically the head
    variables).  The same target atom may serve as the image of several source
    atoms (homomorphisms need not be injective).  See the module docstring for
    how the search is organised.
    """
    binding: Dict[Variable, Term] = dict(seed.items()) if seed is not None else {}

    count = len(source_atoms)
    if count == 0:
        yield Substitution(binding)
        return

    # Per-(predicate, arity) index over the target, built once.
    by_signature: Dict[Tuple[str, int], List[Atom]] = {}
    for target in target_atoms:
        by_signature.setdefault(target.signature, []).append(target)

    # Candidate lists per source atom, fail-fasting on constant signatures.
    candidates: List[List[Atom]] = []
    for atom in source_atoms:
        options = by_signature.get(atom.signature)
        if not options:
            return
        const_positions = atom.const_positions
        if const_positions:
            options = [
                t
                for t in options
                if all(t.args[i] == c for i, c in const_positions)
            ]
            if not options:
                return
        candidates.append(options)

    def consistent(atom: Atom, target: Atom) -> bool:
        """Whether mapping ``atom`` onto ``target`` agrees with the binding."""
        local: Optional[Dict[Variable, Term]] = None
        for pattern_term, target_term in zip(atom.args, target.args):
            if pattern_term.__class__ is Variable:
                bound = binding.get(pattern_term)
                if bound is None and local is not None:
                    bound = local.get(pattern_term)
                if bound is None:
                    if local is None:
                        local = {}
                    local[pattern_term] = target_term
                elif bound != target_term:
                    return False
            elif pattern_term != target_term:
                # Constants (and the rare ground function term) must match
                # the target exactly; constant positions were pre-filtered,
                # so this only fires for repeated-constant corner cases.
                return False
        return True

    def bind(atom: Atom, target: Atom) -> Optional[List[Variable]]:
        """Extend the binding in place; returns the trail of new bindings."""
        trail: List[Variable] = []
        for pattern_term, target_term in zip(atom.args, target.args):
            if pattern_term.__class__ is Variable:
                bound = binding.get(pattern_term)
                if bound is None:
                    binding[pattern_term] = target_term
                    trail.append(pattern_term)
                elif bound != target_term:
                    for var in trail:
                        del binding[var]
                    return None
            elif pattern_term != target_term:
                for var in trail:
                    del binding[var]
                return None
        return trail

    # Fast path: every subgoal has exactly one candidate (typical for
    # chain/star shapes over distinct relations) — a single bind pass decides
    # the search with no selection loop or generator recursion.
    if all(len(options) == 1 for options in candidates):
        # `binding` is local to this invocation, so no undo is needed.
        for index, atom in enumerate(source_atoms):
            target = candidates[index][0]
            for pattern_term, target_term in zip(atom.args, target.args):
                if pattern_term.__class__ is Variable:
                    bound = binding.get(pattern_term)
                    if bound is None:
                        binding[pattern_term] = target_term
                    elif bound != target_term:
                        return
                elif pattern_term != target_term:
                    return
        yield Substitution(binding)
        return

    unassigned = set(range(count))

    def select() -> Tuple[int, List[Atom]]:
        """The most constrained unmapped subgoal and its live candidates.

        Filtering every unmapped subgoal's candidate list against the current
        binding is the forward-checking step: a subgoal sharing a variable
        with the one just bound sees its list shrink, and an empty list
        (returned immediately) prunes the branch before any deeper descent.
        """
        best_index = -1
        best_options: List[Atom] = []
        best_size = -1
        for index in unassigned:
            atom = source_atoms[index]
            options = [t for t in candidates[index] if consistent(atom, t)]
            size = len(options)
            if size == 0:
                return index, options
            if best_size < 0 or size < best_size:
                best_index, best_options, best_size = index, options, size
                if size == 1:
                    break
        return best_index, best_options

    def extend() -> Iterator[Substitution]:
        if not unassigned:
            yield Substitution(dict(binding))
            return
        index, options = select()
        if not options:
            return
        unassigned.discard(index)
        atom = source_atoms[index]
        for target in options:
            trail = bind(atom, target)
            if trail is None:  # pragma: no cover - options are pre-filtered
                continue
            yield from extend()
            for var in trail:
                del binding[var]
        unassigned.add(index)

    yield from extend()


def find_homomorphism(
    source_atoms: Sequence[Atom],
    target_atoms: Sequence[Atom],
    seed: Optional[Substitution] = None,
) -> Optional[Substitution]:
    """The first homomorphism found, or ``None``."""
    for substitution in homomorphisms(source_atoms, target_atoms, seed):
        return substitution
    return None


def containment_mappings(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Iterator[Substitution]:
    """All containment mappings from ``source`` to ``target``.

    The existence of such a mapping witnesses ``target ⊑ source`` (for pure
    conjunctive queries).  Head compatibility is required: the heads must
    share predicate name and arity, and head constants must agree.
    """
    seed = _head_seed(source, target)
    if seed is None:
        return
    yield from homomorphisms(source.body, target.body, seed)


def find_containment_mapping(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[Substitution]:
    """The first containment mapping from ``source`` to ``target``, or ``None``."""
    for mapping in containment_mappings(source, target):
        return mapping
    return None


def count_containment_mappings(source: ConjunctiveQuery, target: ConjunctiveQuery) -> int:
    """The number of distinct containment mappings (useful for tests/diagnostics)."""
    return sum(1 for _ in containment_mappings(source, target))
