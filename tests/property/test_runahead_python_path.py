"""The run-ahead suites again, on the engine's pure-Python loop.

``test_runahead_differential``, ``test_reset_determinism``,
``test_stats_parity`` and ``test_obs_differential`` run on the compiled
core (:mod:`repro.sim.native`) in their own modules.  Importing their
tests here collects each one a second time under the ``python_path``
fixture, which forces the Python loop, so both paths of the one
``"runahead"`` engine are pinned by the same assertions.
"""

import pytest

from tests.property.test_obs_differential import *  # noqa: F401,F403
from tests.property.test_runahead_differential import *  # noqa: F401,F403
from tests.test_reset_determinism import *  # noqa: F401,F403
from tests.test_stats_parity import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("python_path")
