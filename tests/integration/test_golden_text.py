"""Golden text: printed results that must not change unless a change means to.

Each case regenerates one text and compares it with the checked-in copy:

* ``benchmarks/golden/e9.txt`` — E9's certain-answer table (inverse rules,
  MiniCon union and bucket union over three settings);
* ``examples/data_integration.txt`` — the stdout of
  ``examples/data_integration.py`` (rewritings, the inverse-rules program and
  the certain-answer counts).

To accept an intended change, regenerate the file and review its diff:
``PYTHONPATH=src python examples/data_integration.py > examples/data_integration.txt``;
for E9, ``PYTHONPATH=src:benchmarks python -c "import bench_e9_certain_answers as b;
print(b.render())" > benchmarks/golden/e9.txt``.
"""

import importlib.util
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_e9_table_matches_golden_text():
    e9 = _load(ROOT / "benchmarks" / "bench_e9_certain_answers.py")
    expected = (ROOT / "benchmarks" / "golden" / "e9.txt").read_text()
    assert e9.render() + "\n" == expected


def test_data_integration_example_output_matches_golden_text(capsys):
    runpy.run_path(str(ROOT / "examples" / "data_integration.py"), run_name="__main__")
    expected = (ROOT / "examples" / "data_integration.txt").read_text()
    assert capsys.readouterr().out == expected
