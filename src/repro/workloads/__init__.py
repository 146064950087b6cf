"""Workload generators: queries, views and database instances for experiments.

The PODS'95 paper has no experimental section, so the empirical workloads
follow the de-facto standard used by the follow-up literature on view-based
rewriting (bucket / MiniCon / inverse rules): **chain**, **star** and
**complete** (clique) queries with views drawn from the same family, plus
random-database generators and a handful of realistic schemas used by the
examples and the query-optimization benchmark.
"""

from repro.workloads.generators import (
    WorkloadSpec,
    chain_query,
    chain_views,
    complete_query,
    complete_views,
    random_query,
    random_views,
    star_query,
    star_views,
    workload,
)
from repro.workloads.data import (
    random_database,
    random_chain_database,
    scaled_database,
)
from repro.workloads.schemas import (
    enterprise_schema,
    paper_example,
    university_schema,
)
from repro.workloads.updates import (
    UpdateWorkload,
    chain_update_workload,
    complete_update_workload,
    star_update_workload,
    update_stream,
    update_workload,
)

__all__ = [
    "UpdateWorkload",
    "WorkloadSpec",
    "chain_query",
    "chain_update_workload",
    "chain_views",
    "complete_query",
    "complete_update_workload",
    "complete_views",
    "enterprise_schema",
    "paper_example",
    "random_chain_database",
    "random_database",
    "random_query",
    "random_views",
    "scaled_database",
    "star_query",
    "star_update_workload",
    "star_views",
    "university_schema",
    "update_stream",
    "update_workload",
    "workload",
]
