"""Packaging for the src/-layout ``repro`` package.

``pip install -e .`` makes ``import repro`` work without the manual
``PYTHONPATH=src`` dance documented in the README (both invocations are
supported; the test and benchmark Makefile targets use PYTHONPATH so they
run from a fresh checkout).
"""

from setuptools import find_packages, setup

setup(
    name="repro-ivm-epsilon",
    version="1.0.0",
    description=(
        "Reproduction of 'Trade-offs in Static and Dynamic Evaluation of "
        "Hierarchical Queries' (PODS 2020): the IVM^epsilon engine, "
        "baselines, workloads, and benchmarks"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.8",
    # numpy: workload generators and repro.bench; scipy: rho* of
    # non-hierarchical queries.  The serving path imports neither.
    install_requires=["numpy", "scipy"],
)
