"""A small registry mapping experiment ids (E1..E10) to their descriptions.

The registry exists so ``benchmarks/bench_e*.py``, ``docs/benchmarks.md`` and
``repro experiments`` agree on what each experiment id means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Experiment:
    """Metadata describing one reproduced table or figure."""

    #: Stable identifier, e.g. ``"E4"``.
    id: str
    #: One-line description of what the experiment reproduces.
    title: str
    #: "table" or "figure" — the artefact shape in the evaluation.
    artefact: str
    #: The paper claim the experiment checks (free text).
    claim: str
    #: Name of the benchmark module that regenerates it.
    bench_module: str


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Register an experiment (idempotent for identical registrations)."""
    existing = _REGISTRY.get(experiment.id)
    if existing is not None and existing != experiment:
        raise ValueError(f"conflicting registration for experiment {experiment.id}")
    _REGISTRY[experiment.id] = experiment
    return experiment


def get_experiment(experiment_id: str) -> Optional[Experiment]:
    return _REGISTRY.get(experiment_id)


def all_experiments() -> List[Experiment]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


# Pre-register the paper's experiments (see docs/benchmarks.md).
EXPERIMENTS = [
    Experiment("E1", "Paper worked examples: equivalent rewritings found and verified", "table",
               "Complete rewritings exist for the running examples and are verified by expansion",
               "benchmarks/bench_e1_paper_examples.py"),
    Experiment("E2", "Rewriting-length bound (R1)", "table",
               "If a complete rewriting exists, one exists with at most n view subgoals",
               "benchmarks/bench_e2_length_bound.py"),
    Experiment("E3", "NP-hardness scaling of rewriting existence (R2)", "figure",
               "Exhaustive rewriting-existence cost grows exponentially with query size",
               "benchmarks/bench_e3_np_scaling.py"),
    Experiment("E4", "Rewriting time vs number of views — chain queries", "figure",
               "MiniCon scales better than the bucket algorithm as views are added",
               "benchmarks/bench_e4_chain_views.py"),
    Experiment("E5", "Rewriting time vs number of views — star queries", "figure",
               "Same ordering as E4 on star-shaped queries",
               "benchmarks/bench_e5_star_views.py"),
    Experiment("E6", "Rewriting time vs number of views — complete queries", "figure",
               "Single-relation clique queries are the hardest shape for all algorithms",
               "benchmarks/bench_e6_complete_views.py"),
    Experiment("E7", "Query-optimization benefit of rewriting over views (R4)", "table",
               "Answering through materialized views is cheaper than the base-relation plan",
               "benchmarks/bench_e7_optimization.py"),
    Experiment("E8", "Rewriting with comparison predicates (R3)", "table",
               "Rewriting existence and verification remain decidable with comparisons",
               "benchmarks/bench_e8_comparisons.py"),
    Experiment("E9", "Maximally-contained rewritings and certain answers (R5)", "table",
               "MiniCon/bucket unions and inverse rules agree on certain answers",
               "benchmarks/bench_e9_certain_answers.py"),
    Experiment("E10", "Ablation: MiniCon MCD pruning vs bucket cross-product", "table",
               "MCDs prune the candidate space that the bucket algorithm enumerates",
               "benchmarks/bench_e10_ablation_mcd.py"),
]

for _experiment in EXPERIMENTS:
    register(_experiment)
