"""Golden text: printed results that must not change unless a change means to.

Each case regenerates one text and compares it with the checked-in copy:

* ``benchmarks/golden/e{2,3,7,8,9,10}.txt`` — the tables of E2 (rewriting-length
  bound), E3 (exhaustive-search candidates vs query size, without its timing
  columns), E7 (evaluation work, base relations vs views), E8 (comparison
  predicates), E9 (certain answers) and E10 (MCD ablation, without its
  ``time (ms)`` column);
* ``examples/data_integration.txt`` and ``examples/query_optimization.txt`` —
  the stdout of those examples.

To accept an intended change, regenerate the file and review its diff, e.g.
``PYTHONPATH=src python examples/data_integration.py > examples/data_integration.txt``;
for E9, ``PYTHONPATH=src:benchmarks python -c "import bench_e9_certain_answers as b;
print(b.render())" > benchmarks/golden/e9.txt`` (likewise for the other tables).
"""

import importlib.util
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

TABLES = {
    "e2": "bench_e2_length_bound.py",
    "e3": "bench_e3_np_scaling.py",
    "e7": "bench_e7_optimization.py",
    "e8": "bench_e8_comparisons.py",
    "e9": "bench_e9_certain_answers.py",
    "e10": "bench_e10_ablation_mcd.py",
}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("experiment", list(TABLES))
def test_table_matches_golden_text(experiment):
    bench = _load(ROOT / "benchmarks" / TABLES[experiment])
    expected = (ROOT / "benchmarks" / "golden" / f"{experiment}.txt").read_text()
    assert bench.render() + "\n" == expected


@pytest.mark.parametrize("example", ["data_integration", "query_optimization"])
def test_example_output_matches_golden_text(example, capsys):
    runpy.run_path(str(ROOT / "examples" / f"{example}.py"), run_name="__main__")
    expected = (ROOT / "examples" / f"{example}.txt").read_text()
    assert capsys.readouterr().out == expected
