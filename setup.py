"""Package metadata and the ``repro`` console script.

``pip install -e .`` installs the ``src/repro`` packages and a ``repro``
command (``repro.cli:main``).  The version is read from
``src/repro/__init__.py``, its only source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Answering queries using views: rewriting, containment, certain answers",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
