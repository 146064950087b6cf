"""Deterministic work guards for the cold rewriting path (counts, no timing).

Verification of a candidate whose expansion is equivalent to the query needs
one containment mapping per direction — no fingerprint, no verdict-cache
entry, no preorder enumeration — and a ``rewrite()`` call unfolds each
distinct view atom once however many candidates share it.  The counters read
here (``containment_memo_stats()`` and a call log around ``expand_atom``)
repeat exactly, so the tests fail the moment either property is lost.
"""

from __future__ import annotations

import pytest

from repro.containment.memo import containment_memo_stats, global_containment_memo
from repro.datalog.parser import parse_query
from repro.rewriting import expansion
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.plans import RewritingKind
from repro.workloads import chain_views, star_views

#: The 3-arm star with every leaf in the head and one parameter: the shape
#: the e2e ``cold_rewrite`` workload had to leave out (12 candidates, all
#: equivalent, each of which used to enumerate the orderings of six terms).
STAR = "q(C, X1, X2, X3) :- e1(C, X1), e2(C, X2), e3(C, X3), X1 != 1000001."

#: One chain window per span of the ``cold_rewrite`` mix (4, 5 and 6 subgoals).
CHAIN_WINDOWS = [
    "q(X1, X5) :- r2(X1, X2), r3(X2, X3), r4(X3, X4), r5(X4, X5), X3 != 1000001.",
    "q(X0) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4), r5(X4, X5), X1 != 1000001.",
    "q(X7) :- r2(X1, X2), r3(X2, X3), r4(X3, X4), r5(X4, X5), r6(X5, X6), r7(X6, X7), "
    "X5 != 1000001.",
]


@pytest.fixture
def unfolded_atoms(monkeypatch):
    """The view atoms handed to ``expand_atom``, in call order."""
    calls = []
    original = expansion.expand_atom

    def logged(atom, view, factory):
        calls.append(atom)
        return original(atom, view, factory)

    monkeypatch.setattr(expansion, "expand_atom", logged)
    return calls


def _cold(rewriter, text):
    global_containment_memo().reset()
    result = rewriter.rewrite(parse_query(text))
    equivalents = sum(1 for r in result.rewritings if r.kind is RewritingKind.EQUIVALENT)
    return result, equivalents, containment_memo_stats()


@pytest.mark.parametrize("rewriter_class", [MiniConRewriter, BucketRewriter])
def test_star_is_decided_by_witnesses_alone(rewriter_class, unfolded_atoms):
    views = star_views(3, expose_center=True, name_prefix="s")
    result, equivalents, stats = _cold(rewriter_class(views), STAR)
    assert result.candidates_examined == 12
    assert len(result.rewritings) == equivalents == 12
    # Two directions per candidate, each settled by one mapping ...
    assert stats["bypasses"] == 24
    # ... so nothing was enumerated, looked up or stored by fingerprint.
    assert stats["misses"] == 0
    assert stats["hits"] == 0
    assert stats["size"] == 0
    assert len(unfolded_atoms) == len(set(unfolded_atoms))
    assert len(unfolded_atoms) < sum(len(r.query.body) for r in result.rewritings)


@pytest.mark.parametrize("text", CHAIN_WINDOWS)
def test_chain_window_fingerprints_only_non_equivalent_candidates(text, unfolded_atoms):
    views = chain_views(8, segment_lengths=[1, 2, 3])
    result, equivalents, stats = _cold(MiniConRewriter(views), text)
    assert equivalents >= 4
    assert stats["bypasses"] >= 2 * equivalents
    # A candidate that is not equivalent fails one direction and reaches the
    # fingerprint tier there, once; an equivalent one never does.
    assert stats["hits"] + stats["misses"] <= result.candidates_examined - equivalents
    assert len(unfolded_atoms) == len(set(unfolded_atoms))
    assert len(unfolded_atoms) < sum(len(r.query.body) for r in result.rewritings)
