"""The API-surface snapshot stays in sync (tier-1 mirror of tools/check_api.py)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_check_api():
    spec = importlib.util.spec_from_file_location(
        "check_api", REPO_ROOT / "tools" / "check_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_surface_matches_snapshot():
    check_api = load_check_api()
    assert check_api.current_surface() == check_api.read_snapshot(), (
        "repro/__all__ drifted from tools/api_surface.txt; "
        "run `python tools/check_api.py --update` if intentional"
    )


def test_snapshot_covers_both_modules():
    check_api = load_check_api()
    snapshot = check_api.read_snapshot()
    assert any(line.startswith("repro:") for line in snapshot)
    assert any(line.startswith("repro.api:") for line in snapshot)
    assert "repro:connect" in snapshot
    assert "repro:rewrite" not in snapshot  # algorithms are imported from their packages
