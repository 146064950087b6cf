"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import parse_query, parse_views
from repro.engine import Database
from repro.workloads.schemas import enterprise_schema, paper_example, university_schema


@pytest.fixture
def chain3_query():
    """A 3-step chain query with distinguished endpoints."""
    return parse_query("q(X, W) :- r(X, Y), s(Y, Z), t(Z, W).")


@pytest.fixture
def chain3_views():
    """Views covering prefixes/suffixes of the 3-step chain."""
    return parse_views(
        """
        v_rs(A, B) :- r(A, C), s(C, B).
        v_t(A, B) :- t(A, B).
        v_r(A, B) :- r(A, B).
        v_st(A, B) :- s(A, C), t(C, B).
        """
    )


@pytest.fixture
def citation_query():
    """The citation-database running example query."""
    return parse_query("q(X, Y) :- cites(X, Y), cites(Y, X), same_topic(X, Y).")


@pytest.fixture
def citation_views():
    return parse_views(
        """
        v_mutual(A, B) :- cites(A, B), cites(B, A).
        v_topic(A, B) :- same_topic(A, B).
        v_chain(A, B) :- cites(A, C), cites(C, B), same_topic(A, C).
        """
    )


@pytest.fixture
def small_graph_db():
    """A small directed graph with a same_topic relation."""
    return Database.from_dict(
        {
            "cites": [
                ("a", "b"),
                ("b", "a"),
                ("b", "c"),
                ("c", "b"),
                ("a", "c"),
            ],
            "same_topic": [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("b", "c")],
        }
    )


@pytest.fixture
def chain_db():
    """A small database joining along a 3-step chain."""
    return Database.from_dict(
        {
            "r": [(1, 2), (1, 3), (4, 5)],
            "s": [(2, 6), (3, 6), (5, 7)],
            "t": [(6, 8), (7, 9)],
        }
    )


@pytest.fixture
def university():
    return university_schema()


@pytest.fixture
def enterprise():
    return enterprise_schema()


@pytest.fixture
def citation_scenario():
    return paper_example()
