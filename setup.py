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
# NumPy is the one runtime dependency: the radix workload's trace
# generator is pinned to its seeded RNG, and radix is one of the
# paper's ten applications.  The simulator itself never imports it.
#
# The run-ahead engine's loop ships as C source (repro/sim/_core.c) and
# is built on first use into the bytecode cache.  Without a C compiler,
# full-map runs fall back to the reference engine with identical
# results, and limited/coarse directories are unavailable (see
# repro.sim.native and repro.sim.factory.make_engine).
setup(
    python_requires=">=3.10",
    install_requires=["numpy"],
    package_data={"repro.sim": ["_core.c"]},
)
