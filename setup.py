"""Setup shim for environments without the `wheel` package.

`pip install -e . --no-build-isolation` needs bdist_wheel; this offline
environment lacks it, so `python setup.py develop` (or this shim) keeps
the editable install path working.

Installing compiles nothing: the run-ahead engine's C core ships as
source and builds itself on first use when a C compiler is present.
"""

from setuptools import setup

# The columnar miss path uses 3.10+ features (slotted dataclasses,
# int.bit_count); CI tests 3.10–3.12.
#
# The core install has zero runtime dependencies.  The batch-vectorized
# epoch engine (SystemConfig.engine == "vector") needs NumPy:
#   pip install .[vector]
# Without it, selecting that backend raises EngineUnavailableError and
# the runahead/reference engines keep working.
#
# A C compiler is optional, not a dependency: the run-ahead engine's
# compiled core ships as source (repro/sim/_core.c) and is built on
# first use into the bytecode cache; without a compiler the engine runs
# its Python loop with identical results (see repro.sim.native).
setup(
    python_requires=">=3.10",
    extras_require={"vector": ["numpy"]},
    package_data={"repro.sim": ["_core.c"]},
)
