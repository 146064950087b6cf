"""The migration table is the contract for every name the public surface dropped.

``docs/migration.md``'s "2.0: one public surface" table has one row per
removed name: where it used to be exported, and the one package or module
to import it from now.  Each row is a case: the name is gone from the old
module's ``__all__`` (and attribute), and the home it names provides it.
"""

import importlib
import re
from pathlib import Path

import pytest

MIGRATION = Path(__file__).resolve().parents[2] / "docs" / "migration.md"
HEADING = "## 2.0: one public surface (removals)"
ROW = re.compile(r"^\| `(?P<old>repro(?:\.\w+)*)\.(?P<name>\w+)` \| `(?P<home>repro(?:\.\w+)*)` \|$")


def removal_rows():
    text = MIGRATION.read_text()
    section = text[text.index(HEADING):]
    following = section.find("\n## ", len(HEADING))
    if following != -1:
        section = section[:following]
    return [match.groupdict() for match in map(ROW.match, section.splitlines()) if match]


ROWS = removal_rows()


def test_the_table_lists_each_name_once():
    assert len(ROWS) >= 70
    assert len({(row["old"], row["name"]) for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{row['old']}.{row['name']}" for row in ROWS]
)
def test_removed_name_lives_only_at_its_home(row):
    old = importlib.import_module(row["old"])
    assert row["name"] not in getattr(old, "__all__", ())
    assert not hasattr(old, row["name"]) or isinstance(
        getattr(old, row["name"]), type(old)
    ), f"{row['old']}.{row['name']} is still an attribute"
    home = importlib.import_module(row["home"])
    assert hasattr(home, row["name"]), f"{row['home']} has no {row['name']}"
