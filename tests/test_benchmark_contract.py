"""The benchmark's view of the package.

``perfbench/tracing.py`` rebinds gfaber functions by module and name for
``--trace 1``, ``perfbench/workloads.py`` builds its scenarios from
``cli.PRESETS``, and every ``perfbench/*.py`` reads gfaber names such as
``nlfit.max_abs_deviation``.  A change under ``src/`` that breaks any of
them would otherwise pass this suite and show only when the benchmark
runs.
"""

import ast
import glob
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from conftest import record_direct_series  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

from gfaber import aber, cli, nlfit  # noqa: E402


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


def test_closed_many_sums_no_gauss_series(monkeypatch):
    """Every closed-form 2F1 factor in ``closed_many`` either fits a double
    and is returned as (1 - z)^-a, or overflows and fails at once (or in
    the z > 0.5 transformation); none runs the direct series, which would
    sum 10,000 terms before failing.  Counts calls, not time."""
    series_runs = record_direct_series(monkeypatch)
    for curve in workloads.closed_many(0):
        try:
            aber.sweep(curve.scenario, aber.METHOD_CLOSED)
        except OverflowError:
            pass  # the transformation's known aborts (13 curves)
    assert len(series_runs) == 0


def test_refit_evaluates_one_stack_per_lm_iteration(monkeypatch):
    """``nlfit.lm`` is the refit's hot path in ``cli_cold``: during
    ``fit_q_approx(2.784)`` each LM iteration's Jacobian is one 8-row
    stack, and every other residual call is one point (the start or a
    damping trial), never a single bumped column.  Counts calls, not time."""
    real_lm = nlfit.levenberg_marquardt
    runs = []

    def counting_lm(residual, x0):
        shapes = []

        def counted(stack):
            shapes.append(stack.shape)
            return residual(stack)

        result = real_lm(counted, x0)
        runs.append((shapes, result.iterations))
        return result

    monkeypatch.setattr(nlfit, "levenberg_marquardt", counting_lm)
    nlfit.fit_q_approx(2.784)
    assert len(runs) == nlfit.N_RESTARTS
    for shapes, iterations in runs:
        assert set(shapes) == {(1, 8), (8, 8)}
        assert shapes[0] == (1, 8)
        assert shapes.count((8, 8)) == iterations


def _gfaber_reads(path):
    """``(dotted owner, name)`` of every gfaber name that ``path`` reads.

    Covers ``from gfaber[.module] import name`` and ``alias.name`` where
    ``alias`` was bound by an import of gfaber, in any scope of the file.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    aliases = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gfaber":
                    # ``import gfaber.cli`` binds ``gfaber``.
                    aliases[alias.asname or "gfaber"] = (
                        alias.name if alias.asname else "gfaber"
                    )
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").split(".")[0] == "gfaber"
        ):
            for alias in node.names:
                reads.add((node.module, alias.name))
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then getattr."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def test_every_gfaber_name_the_benchmark_reads_resolves():
    reads = set()
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        reads |= _gfaber_reads(path)
    # The scan itself must see the names the benchmark is known to read.
    assert {("gfaber.nlfit", "max_abs_deviation"),
            ("gfaber.specfun", "backend")} <= reads
    missing = []
    for owner, name in sorted(reads):
        try:
            _resolve(f"{owner}.{name}")
        except (ImportError, AttributeError):
            missing.append(f"{owner}.{name}")
    assert missing == []
