"""The benchmark's view of the package.

``perfbench/tracing.py`` rebinds gfaber functions by module and name for
``--trace 1``, and ``perfbench/workloads.py`` builds its scenarios from
``cli.PRESETS``.  A change under ``src/`` that breaks either would
otherwise pass this suite and show only when the benchmark runs.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracing, workloads  # noqa: E402

from gfaber import aber, cli  # noqa: E402


def test_every_traced_name_resolves_to_a_callable():
    for prefix, module_name, names in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), (prefix, name)


def test_workload_builders_build():
    curves = workloads.preset_curves(sorted(cli.PRESETS))
    assert len(curves) == sum(len(p["curves"]) for p in cli.PRESETS.values())
    assert all(isinstance(c.scenario, aber.AberScenario) for c in curves)
    calls = workloads.cli_cold(0)
    argvs = {call.argv for call in calls}
    for name in cli.PRESETS:
        assert ("aber", "--preset", name) in argvs
