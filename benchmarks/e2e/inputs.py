"""Seeded inputs of the four workloads.

Everything the server sees — the views file, the facts file, the request
list and the delta stream — is built here from ``--seed`` with the
:mod:`repro.workloads` generators; the server receives only files and HTTP
bodies.  Shapes and sizes are fixed (README "Workloads" says why each was
chosen); the seed moves the data, the order of requests and the constants in
them, never the mix, so two seeds cost the same work.

Query variants are windows of the generators' chain/star/complete shapes
with a head projection and one ``Xk != c`` parameter; the parameter is what
makes a fingerprint distinct without changing the shape's cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.datalog.views import ViewSet
from repro.engine.database import Database
from repro.materialize.delta import Delta
from repro.workloads import (
    chain_query,
    chain_views,
    complete_query,
    complete_views,
    random_chain_database,
    random_database,
    star_query,
    star_views,
    update_stream,
)

#: (query text, index into ``Workload.templates`` or -1 for a one-off query).
Read = Tuple[str, int]


@dataclass
class Workload:
    """One workload's generated inputs."""

    name: str
    views: ViewSet
    database: Database
    #: The warm-up list: sent once, in order, before any timed phase.
    templates: List[str]
    #: ``reads(n)`` returns the next ``n`` reads of the seeded request stream.
    reads: Callable[[int], List[Read]]
    #: The write stream; every delta is valid against the state its
    #: predecessors leave, so it must be applied in order.
    deltas: List[Delta]
    #: Open-loop rate of the paced phase, requests per second in total.  Frozen
    #: at about half of this host's reference ``sat_qps`` (README "Paced rates").
    paced_qps: float
    #: Upper bound on closed-loop requests per second, to size request lists.
    max_qps: float
    #: ``unread(n)`` hands back the last ``n`` reads of the latest ``reads``
    #: call, which a timed phase generated but never sent.  Only a stream
    #: whose position matters (a cycle sized against the caches) needs it.
    unread: Callable[[int], None] = lambda count: None
    #: Whether writes ride inside the timed phases, at :data:`WRITE_SLOTS`
    #: (otherwise they arrive as a burst on the idle server afterwards).
    interleaved_writes: bool = False
    #: Durable serving flags (``--storage DIR`` is added per server).
    storage_flags: List[str] = field(default_factory=list)
    #: Retained response bodies verified against the oracle per timed phase.
    verify_per_phase: int = 8
    sizes: Dict[str, object] = field(default_factory=dict)


def _variant(
    base: ConjunctiveQuery,
    atoms: Sequence[Atom],
    head: Sequence[Variable],
    compared: Variable = None,
    constant: int = 0,
) -> str:
    comparisons = [Comparison(compared, "!=", constant)] if compared is not None else []
    return to_datalog(ConjunctiveQuery(Atom(base.name, list(head)), atoms, comparisons))


def _chain_variant(length: int, start: int, span: int, head: str, k: int = None, c: int = 0) -> str:
    """Window ``start .. start+span`` of the chain; ``head`` is ends/first/last."""
    base = chain_query(length)
    atoms = base.body[start:start + span]
    first, last = Variable(f"X{start}"), Variable(f"X{start + span}")
    head_vars = {"ends": [first, last], "first": [first], "last": [last]}[head]
    compared = Variable(f"X{k}") if k is not None else None
    return _variant(base, atoms, head_vars, compared, c)


def _star_variant(arms: int, chosen: Sequence[int], head: str, k: int = None, c: int = 0) -> str:
    """The ``chosen`` (1-based) arms of the star; ``head`` is all/center."""
    base = star_query(arms, expose_center=True)
    atoms = [base.body[arm - 1] for arm in chosen]
    center = Variable("C")
    leaves = [Variable(f"X{arm}") for arm in chosen]
    head_vars = [center] + (leaves if head == "all" else [])
    compared = Variable(f"X{k}") if k is not None else None
    return _variant(base, atoms, head_vars, compared, c)


def _complete_variant(edges: int, c: int) -> str:
    """Over the complete workload's single ``edge`` relation: the 2-edge path
    with every variable distinguished, or the triangle projected to ``X1``."""
    base = complete_query(3)  # edge(X1,X2), edge(X1,X3), edge(X2,X3)
    if edges == 2:
        return _variant(base, [base.body[0], base.body[2]], base.head.args, Variable("X1"), c)
    return _variant(base, base.body, [Variable("X1")], Variable("X1"), c)


def _union_views(*view_sets: ViewSet) -> ViewSet:
    return ViewSet([view for views in view_sets for view in views])


def _star_database(arms: int, tuples: int, domain: int, seed: int) -> Database:
    schema = {f"e{i}": 2 for i in range(1, arms + 1)}
    return random_database(schema, tuples_per_relation=tuples, domain_size=domain, seed=seed)


def _regular_database(names: Sequence[str], fanout: int, domain: int, seed: int) -> Database:
    """Binary relations in which every value has exactly ``fanout`` successors
    and ``fanout`` predecessors.

    The random generators of :mod:`repro.workloads.data` draw tuples
    independently, so join sizes — the work of one execution — move 10-20 %
    with the seed.  Here the seed only permutes who joins whom: an ``n``-way
    chain has exactly ``domain * fanout ** n`` derivations under every seed.
    """
    rng = random.Random(seed)
    database = Database()
    for name in names:
        sources, targets = list(range(domain)), list(range(domain))
        rng.shuffle(sources)
        rng.shuffle(targets)
        relation = database.ensure_relation(name, 2)
        relation.add_all(
            (value, targets[(sources[value] + step) % domain])
            for value in range(domain) for step in range(fanout)
        )
    return database


def _round_robin_deltas(
    database: Database, relations: Sequence[str], count: int, churn: float,
    domain: int, seed: int,
) -> List[Delta]:
    """``count`` deltas, each changing ``churn`` of ONE relation, round-robin.

    One :func:`update_stream` per relation keeps every delta valid against
    the evolving state: the streams touch disjoint relations, so any
    interleaving of them is valid too.
    """
    per_relation = -(-count // len(relations))
    streams = [
        update_stream(
            database, steps=per_relation, churn=churn, insert_ratio=0.5,
            relations=[name], domain_size=domain, seed=seed + index,
        )
        for index, name in enumerate(relations)
    ]
    return [streams[i % len(relations)][i // len(relations)] for i in range(count)]


def _shuffled_replay(templates: List[str], rng: random.Random) -> Callable[[int], List[Read]]:
    """Whole passes over the template list, each in a fresh seeded order."""
    def reads(count: int) -> List[Read]:
        out: List[Read] = []
        while len(out) < count:
            order = list(range(len(templates)))
            rng.shuffle(order)
            out.extend((templates[i], i) for i in order)
        return out[:count]
    return reads


# ---------------------------------------------------------------------------
# warm_serve
# ---------------------------------------------------------------------------

def warm_serve(seed: int) -> Workload:
    rng = random.Random(seed)
    tuples, domain = 400, 800
    views = _union_views(
        chain_views(4, segment_lengths=[1, 2]),
        star_views(4, expose_center=True, name_prefix="s"),
    )
    database = random_chain_database(4, tuples, domain, seed=seed).merge(
        _star_database(4, tuples, domain, seed + 1)
    )
    chain = [
        _chain_variant(4, start, span, head, k, c)
        for start, span in ((0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (0, 4))
        for head in ("ends", "first")
        for k, c in ((None, 0), (start + 1, rng.randrange(domain)), (start + 1, rng.randrange(domain)))
    ]
    subsets = [
        (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
        (1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4),
    ]
    star = [
        _star_variant(4, chosen, head) for chosen in subsets for head in ("all", "center")
    ]
    rng.shuffle(chain)
    rng.shuffle(star)
    templates = chain[:32] + star[:16]
    rng.shuffle(templates)
    return Workload(
        name="warm_serve",
        views=views,
        database=database,
        templates=templates,
        reads=_shuffled_replay(templates, rng),
        deltas=_round_robin_deltas(
            database, sorted(database.relation_names()), BURST_DELTAS, 0.005, domain, seed + 2
        ),
        paced_qps=PACED_QPS["warm_serve"],
        max_qps=2500.0,
        sizes={
            "views": len(views), "tuples_per_relation": tuples, "domain": domain,
            "templates": len(templates), "cache_entries": 512,
        },
    )


# ---------------------------------------------------------------------------
# cold_rewrite
# ---------------------------------------------------------------------------

#: One period of the cold mix: 12 chain (60 %), 5 star (25 %), 3 complete
#: (15 %).  A fixed period, not a draw per request, so every run and every
#: seed carries exactly the same mix of rewriting costs.  Shapes are limited
#: to those that rewrite in 5-40 ms here: a comparison beside several
#: distinguished variables makes containment enumerate their orderings (a
#: 3-arm star with every leaf in the head takes 35 s), which would turn the
#: workload into a handful of samples per run.
_COLD_PERIOD = (
    [("chain", span) for span in (4, 5, 6) for _ in range(4)]
    + [("star", 3)] * 3 + [("star", 2)] * 2
    + [("complete", 2)] * 2 + [("complete", 3)]
)


def cold_rewrite(seed: int) -> Workload:
    rng = random.Random(seed)
    tuples, domain = 60, 40
    views = _union_views(
        chain_views(8, segment_lengths=[1, 2, 3]),
        star_views(6, expose_center=True, name_prefix="s"),
        complete_views(3, num_views=4, view_size=2, name_prefix="c", seed=seed),
    )
    database = (
        random_chain_database(8, tuples, domain, seed=seed)
        .merge(_star_database(6, tuples, domain, seed + 1))
        .merge(random_database({"edge": 2}, tuples, domain, seed=seed + 2))
    )
    period = list(_COLD_PERIOD)
    rng.shuffle(period)
    # The parameter is a serial number far outside the data's domain: every
    # request is a fingerprint no cache has seen, at its shape's usual cost.
    serial = [1_000_000 + rng.randrange(1_000_000)]

    def one(kind: str, size: int) -> str:
        serial[0] += 1
        c = serial[0]
        if kind == "chain":
            start = rng.randrange(0, 8 - size + 1)
            return _chain_variant(
                8, start, size, rng.choice(("ends", "first", "last")),
                rng.randrange(start + 1, start + size), c,
            )
        if kind == "star":
            first = rng.randrange(1, 6 - size + 2)
            return _star_variant(6, range(first, first + size), "center", first, c)
        return _complete_variant(size, c)

    def reads(count: int) -> List[Read]:
        return [(one(*period[i % len(period)]), -1) for i in range(count)]

    templates = [text for text, _ in reads(40)]
    return Workload(
        name="cold_rewrite",
        views=views,
        database=database,
        templates=templates,
        reads=reads,
        deltas=_round_robin_deltas(
            database, sorted(database.relation_names()), BURST_DELTAS, 0.05, domain, seed + 3
        ),
        paced_qps=PACED_QPS["cold_rewrite"],
        max_qps=150.0,
        sizes={
            "views": len(views), "tuples_per_relation": tuples, "domain": domain,
            "distinct_fingerprints": "unbounded", "cache_entries": 512,
            "mix": "12 chain(4-6 subgoals) : 5 star(2-3 arms) : 3 complete(path, triangle) per 20",
        },
    )


# ---------------------------------------------------------------------------
# exec_heavy
# ---------------------------------------------------------------------------

#: The projected shapes of ``exec_heavy``, all over the full 4-chain: ``(head,
#: k)`` with the parameter on the interior variable ``Xk``.  (A parameter on
#: an end variable makes the plan chosen — and a 4x difference in cost —
#: depend on the seed's data.)  Star relations and views are served too (the
#: relevance index must prune them) but not queried: a star query with a
#: comparison is a rewriting workload (see ``_COLD_PERIOD``), and without one
#: it has a single fingerprint.
_EXEC_SHAPES = (("first", 2), ("last", 1), ("first", 1), ("last", 2), ("first", 3), ("last", 3))
#: Distinct fingerprints in the cycle: more than any cache holds.
_EXEC_DISTINCT = 1200


def exec_heavy(seed: int) -> Workload:
    rng = random.Random(seed)
    fanout, domain = 4, 120
    tuples = fanout * domain
    views = _union_views(
        chain_views(4, segment_lengths=[1, 2]),
        star_views(3, expose_center=True, name_prefix="s"),
    )
    database = _regular_database(
        [f"r{i}" for i in range(1, 5)] + [f"e{i}" for i in range(1, 4)], fanout, domain, seed
    )
    # Nine in ten project to at most ``domain`` rows; every tenth returns the
    # whole join, so that serialization is visible.  Constants past the
    # domain filter nothing but still make a fingerprint of their own.
    constants = list(range(_EXEC_DISTINCT // 10 * 9 // len(_EXEC_SHAPES)))
    rng.shuffle(constants)
    projected = [
        _chain_variant(4, 0, 4, head, k, c) for c in constants for head, k in _EXEC_SHAPES
    ]
    distinct: List[str] = []
    for index in range(0, len(projected), 9):
        distinct.extend(projected[index:index + 9])
        distinct.append(_chain_variant(4, 0, 4, "ends", 2, constants[index // 9]))
    # The stream starts after the warm-up list, so no timed request finds its
    # answer cached by the warm-up pass.
    warm_up = 20
    cursor = [warm_up]

    def reads(count: int) -> List[Read]:
        out = [
            (distinct[(cursor[0] + i) % len(distinct)], (cursor[0] + i) % len(distinct))
            for i in range(count)
        ]
        cursor[0] += count
        return out

    def unread(count: int) -> None:
        cursor[0] -= count

    return Workload(
        name="exec_heavy",
        views=views,
        database=database,
        # Warm-up touches every slot (extents, indexes) but caches none of the
        # timed requests' answers for long: the cycle (1500) exceeds every cache.
        templates=distinct[:warm_up],
        reads=reads,
        unread=unread,
        deltas=_round_robin_deltas(
            database, sorted(database.relation_names()), BURST_DELTAS, 0.005, domain, seed + 2
        ),
        paced_qps=PACED_QPS["exec_heavy"],
        max_qps=100.0,
        verify_per_phase=3,
        sizes={
            "views": len(views), "tuples_per_relation": tuples, "domain": domain,
            "distinct_fingerprints": len(distinct), "cache_entries": 512,
            "plan_cache_entries": 256,
        },
    )


# ---------------------------------------------------------------------------
# churn_mixed
# ---------------------------------------------------------------------------

def churn_mixed(seed: int) -> Workload:
    rng = random.Random(seed)
    fanout, domain = 4, 150
    tuples = fanout * domain
    views = chain_views(4, segment_lengths=[1, 2])
    database = _regular_database([f"r{i}" for i in range(1, 5)], fanout, domain, seed)
    windows = [(s, n) for n in (1, 2, 3, 4) for s in range(0, 4 - n + 1)]
    # Every window projected to its first variable (at most ``domain`` rows),
    # plus six short windows with both ends (600-2400 rows): replies stay
    # small enough that a cache hit is cheap and a re-execution is not.  The
    # set is the same under every seed; the seed orders it.
    templates = [_chain_variant(4, start, span, "first") for start, span in windows] + [
        _chain_variant(4, start, span, "ends")
        for start, span in ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (2, 2))
    ]
    rng.shuffle(templates)
    return Workload(
        name="churn_mixed",
        views=views,
        database=database,
        templates=templates,
        reads=_shuffled_replay(templates, rng),
        deltas=_round_robin_deltas(
            database, sorted(database.relation_names()), CHURN_DELTAS, 0.005, domain, seed + 1
        ),
        paced_qps=PACED_QPS["churn_mixed"],
        max_qps=700.0,
        interleaved_writes=True,
        storage_flags=["--wal", "always", "--snapshot-every", str(SNAPSHOT_EVERY)],
        sizes={
            "views": len(views), "tuples_per_relation": tuples, "domain": domain,
            "templates": len(templates), "cache_entries": 512,
            "reads_per_write": 4, "rows_per_delta": 3, "snapshot_every": SNAPSHOT_EVERY,
            "wal": "always",
        },
    )


#: Positions, in every ten requests of a timed ``churn_mixed`` phase, that carry
#: a write: 4 reads to 1 write, all on even positions, so that connection 0
#: (request ``i`` goes to connection ``i mod 2``) carries the stream in order.
WRITE_SLOTS = (0, 4)
#: ``churn_mixed`` checkpoints after this many applied deltas.
SNAPSHOT_EVERY = 25
#: Deltas ready for the idle server after the read phases (read-only
#: workloads): more than two seconds of closed-loop writing consumes.
BURST_DELTAS = 5000
#: Length of the churn workload's delta stream (more than any run consumes).
CHURN_DELTAS = 6000

#: The frozen paced rates, requests per second (README "Paced rates").
PACED_QPS = {
    "warm_serve": 260.0,
    "cold_rewrite": 16.0,
    "exec_heavy": 12.0,
    "churn_mixed": 80.0,
}

WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "warm_serve": warm_serve,
    "cold_rewrite": cold_rewrite,
    "exec_heavy": exec_heavy,
    "churn_mixed": churn_mixed,
}


def facts_text(database: Database) -> str:
    """The database as a facts file (``name(a, b).`` lines)."""
    return "\n".join(f"{atom}." for atom in database.facts()) + "\n"


def views_text(views: ViewSet) -> str:
    return to_datalog(views) + "\n"
