"""Random database instance generators for the engine-level experiments."""

from __future__ import annotations

import random
from typing import Mapping

from repro.engine.database import Database


def random_database(
    schema: Mapping[str, int],
    tuples_per_relation: int = 100,
    domain_size: int = 50,
    seed: int = 0,
) -> Database:
    """A database with uniformly random tuples.

    ``schema`` maps relation names to arities; values are drawn from the
    integer domain ``0 .. domain_size - 1``.
    """
    rng = random.Random(seed)
    database = Database()
    for name, arity in schema.items():
        database.ensure_relation(name, arity)
        for _ in range(tuples_per_relation):
            database.add_fact(name, tuple(rng.randrange(domain_size) for _ in range(arity)))
    return database


def random_chain_database(
    num_relations: int,
    tuples_per_relation: int = 100,
    domain_size: int = 50,
    seed: int = 0,
    relation_prefix: str = "r",
) -> Database:
    """A database for chain queries where consecutive relations actually join.

    Each relation ``r_i`` is binary; the second column of ``r_i`` and the
    first column of ``r_{i+1}`` are drawn from the same domain, so chain
    queries have non-trivial answers.
    """
    rng = random.Random(seed)
    database = Database()
    for index in range(1, num_relations + 1):
        name = f"{relation_prefix}{index}"
        database.ensure_relation(name, 2)
        for _ in range(tuples_per_relation):
            database.add_fact(
                name, (rng.randrange(domain_size), rng.randrange(domain_size))
            )
    return database


def random_graph_database(
    relation: str = "edge",
    num_nodes: int = 50,
    num_edges: int = 200,
    seed: int = 0,
) -> Database:
    """A random directed graph stored in a single binary relation."""
    rng = random.Random(seed)
    database = Database()
    database.ensure_relation(relation, 2)
    for _ in range(num_edges):
        database.add_fact(relation, (rng.randrange(num_nodes), rng.randrange(num_nodes)))
    return database


def scaled_database(base: Database, factor: int, seed: int = 0) -> Database:
    """A database ``factor`` times larger than ``base``.

    New tuples are created by shifting the integer values of existing tuples
    into fresh ranges (string values get a suffix), which preserves the join
    structure of the original data — useful for scale-up experiments where
    selectivities should stay comparable.
    """
    out = base.copy()
    for copy_index in range(1, factor):
        for relation in base:
            for row in relation.tuples():
                shifted = tuple(_shift(value, copy_index) for value in row)
                out.add_fact(relation.name, shifted)
    return out


def _shift(value, copy_index: int):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value + copy_index * 1_000_000
    if isinstance(value, float):
        return value + copy_index * 1_000_000.0
    return f"{value}#{copy_index}"
