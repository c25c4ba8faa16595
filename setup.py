"""Package metadata and runtime dependencies, declared in one place.

``pip install -e .`` installs the ``repro`` package from ``src/`` together
with its runtime dependencies; every CI job installs from here plus its
own test tools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Atomique: a quantum compiler for reconfigurable neutral atom arrays"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "networkx"],
)
