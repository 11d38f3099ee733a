"""Setuptools configuration.

The package version is single-sourced from ``src/repro/__init__.py``
(``__version__``); everything else is declared inline.  The file is kept
compatible with older setuptools/pip combinations that lack full PEP 660
editable-install support (e.g. offline environments without the ``wheel``
package).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """Parse ``__version__`` out of src/repro/__init__.py without importing it."""
    init_text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r"^__version__\s*=\s*[\"']([^\"']+)[\"']", init_text, re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Reproduction of IOS: Inter-Operator Scheduler for CNN Acceleration (MLSys 2021)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    # networkx is the tests' oracle for the RandWire generator and DAG width.
    extras_require={"test": ["pytest", "hypothesis", "networkx>=3.0"]},
    entry_points={
        "console_scripts": [
            "ios-bench=repro.experiments.cli:main",
        ]
    },
)
