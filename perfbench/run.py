"""The gfaber benchmark: one command per workload, from a seed.

    python3 perfbench/run.py --workload closed_dense --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory and from nowhere else.  Workloads (see ``workloads.py``):

* ``closed_dense``: every preset curve on an 801-point grid, closed form;
* ``closed_many``: seed-drawn scenarios over the whole parameter domain
  plus known hard corners, 17 points each, closed form;
* ``oracle_verify``: closed form, approximation oracle and exact oracle
  of preset and seed-drawn scenarios on 4 to 6 point grids;
* ``cli_cold``: ``python -m gfaber.cli`` processes, one at a time.

One caller runs the units (curves, or CLI invocations) serially in a
closed loop, on repeated passes until ``--seconds`` are spent.  The host's
CPU speed drifts by tens of percent within seconds and over minutes, so
each unit's time is the median over the passes, every metric is formed
from those per-unit times, and the gated ``*_norm`` metrics of the
in-process workloads scale them by ``host_factor``: the nominal time of a
fixed pure-Python reference loop over its median time in this run (the
loop runs between units every 50 ms).  cli_cold is not scaled.  The raw
wall-clock figures are printed as well.
``ABER_THREADS`` and ``GFABER_PURE_PY`` are removed from the environment
of the benchmark and its children.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (see ``BENCHMARK.json``); the lines before it report
every metric by name and unit, the environment, the output check and a
checksum of the computed values.  With ``--trace 1`` the functions of
each layer are wrapped (``tracing.py``) for one traced pass, after
untraced passes, and the JSON carries the per-layer metrics.

After the timed passes the outputs are checked: closed-form values
against the approximation oracle, every value against the committed
reference when the seed is the default one, CLI outputs by kind, and
every unit must give the same result on every pass.  A failed check
makes ``correct`` false.  Exceptions of any type count as failed points.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCRUBBED_ENV = ("ABER_THREADS", "GFABER_PURE_PY")
WORKLOADS = ("closed_dense", "closed_many", "oracle_verify", "cli_cold")
#: Fresh interpreters whose set-up time gives ``setup_s`` (the median).
SETUP_REPEATS = 5
#: Time of ``measure.reference_loop`` on the nominal host (2 CPUs, Python
#: 3.11.7, at its slower speed).
NOMINAL_REFERENCE_S = 2.0e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once and print the set-up time (used internally)",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's values as the workload's reference",
    )
    return parser.parse_args(argv)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = "src"
    return env


def setup(workload, seed):
    """Import gfaber, generate the inputs and warm up.

    Returns ``(seconds, units)``.  The warm-up evaluates the first point
    of every curve (the first pass of a CLI workload warms the child
    interpreter's imports instead).
    """
    start = time.perf_counter()
    from gfaber import aber

    import workloads

    units = getattr(workloads, workload)(seed)
    if workload == "cli_cold":
        subprocess.run(
            [sys.executable, "-c", "import gfaber.cli"],
            env=child_env(), cwd=ROOT, check=True,
        )
    else:
        for curve in units:
            try:
                aber.aber_point(curve.scenario, curve.scenario.snr_grid[0])
            except Exception:  # noqa: BLE001 - failures are measured later
                pass
        if workload == "oracle_verify":
            first = units[0].scenario
            for method in (aber.METHOD_ORACLE_APPROX, aber.METHOD_ORACLE_EXACT):
                aber.aber_point(first, first.snr_grid[0], method)
    return time.perf_counter() - start, units


def setup_times(workload, seed):
    """Set-up time of ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def git_revision():
    env = dict(child_env(), GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unit_times(timing):
    """Each unit's time: the median over its passes."""
    return [statistics.median(t) for t in timing.times]


def quantile(values, q):
    """Quantile ``q`` by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def value_table(workload, units, outcomes):
    """label -> list of value rows, as checked and checksummed."""
    from check import cli_values

    if workload == "cli_cold":
        return {
            u.label: cli_values(u.kind, o.stdout) if o.exit_code == 0 or
            u.kind == "aber" else []
            for u, o in zip(units, outcomes)
        }
    return {u.label: [list(v) for v in o.values] for u, o in zip(units, outcomes)}


def check_outputs(workload, seed, units, timing):
    """Every output check; returns a list of problems."""
    import check

    outcomes = timing.outcomes
    problems = []
    if not timing.consistent:
        problems.append("a unit gave different results on different passes")
    rng = check.sample_rng(seed)
    statuses = {}
    if workload == "cli_cold":
        for unit, outcome in zip(units, outcomes):
            problems += check.check_cli(unit, outcome, rng)
    elif workload == "oracle_verify":
        found, statuses = check.check_verify_columns(units, outcomes)
        problems += found
    else:
        found, statuses = check.check_against_oracle(
            units, [o.values[0] for o in outcomes],
            check.ORACLE_SAMPLES[workload], rng,
        )
        problems += found
    if statuses:
        print("check oracle-points " + " ".join(
            f"{status}={count}" for status, count in sorted(statuses.items())
        ))
    if seed == check.DEFAULT_SEED:
        if not os.path.exists(check.reference_path(workload)):
            return problems + [f"no reference for {workload}"]
        reference = check.load_reference(workload)
        exits = {u.label: o.exit_code for u, o in zip(units, outcomes)}
        if workload == "cli_cold":
            def judge(*_):
                return []  # CLI values are checked by kind above
        else:
            judge = check.judge_against_oracle({u.label: u for u in units})
        problems += check.check_against_reference(
            value_table(workload, units, outcomes), reference["values"], judge
        )
        for label, code in reference.get("exit_codes", {}).items():
            if code == 0 and exits.get(label) != 0:
                problems.append(f"{label}: exited {exits.get(label)}, reference 0")
    return problems


def end_to_end(workload, units, timing, setups, peak_rss_mb):
    """Every end-to-end metric of this workload: name -> (value, unit)."""
    per_unit = unit_times(timing)
    points = sum(o.points for o in timing.outcomes)
    failed = sum(o.failed for o in timing.outcomes)
    total = sum(per_unit)
    # Host speed drifts by tens of percent over minutes; the gated times
    # are scaled to a nominal host on which the reference loop takes
    # NOMINAL_REFERENCE_S.  The loop runs in this process and does not
    # track the speed of CLI child processes (scaling did not narrow the
    # spread of invocation times across runs), so cli_cold is not scaled.
    factor = NOMINAL_REFERENCE_S / statistics.median(timing.reference_s)
    scale = 1.0 if workload == "cli_cold" else factor
    p50 = quantile(per_unit, 0.5)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "unit_ms_p50_norm": (p50 * scale * 1e3, "ms"),
        "throughput_norm_per_s": (points / total / scale, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "unit_ms_p50": (p50 * 1e3, "ms"),
        "unit_ms_p90": (quantile(per_unit, 0.9) * 1e3, "ms"),
        "throughput_per_s": (points / total, "1/s"),
        "fail_frac": (failed / points, "ratio"),
        "host_factor": (factor, "ratio"),
    }
    # The same figures under the names of the workload's own units.
    if workload == "cli_cold":
        metrics["invocation_ms_p50"] = metrics["unit_ms_p50"]
        metrics["invocation_ms_p90"] = metrics["unit_ms_p90"]
    else:
        metrics["points_per_s"] = (points / total, "points/s")
        if workload != "closed_dense":
            metrics["curve_ms_p50"] = metrics["unit_ms_p50"]
            metrics["curve_ms_p90"] = metrics["unit_ms_p90"]
    return metrics, points, failed


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def runner_for(workload, traced=False):
    import measure

    if workload == "cli_cold":
        return measure.CliRunner(
            ROOT, OUT_DIR, child_env(),
            os.path.join(HERE, "traced_cli.py") if traced else None,
        )
    return measure.run_verify if workload == "oracle_verify" else measure.run_closed


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gfaber", "__init__.py")):
        sys.stderr.write(f"error: no gfaber package under {SRC}\n")
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed)
        print(f"{seconds!r}")
        return 0

    _, units = setup(args.workload, args.seed)
    import gfaber
    import numpy
    from gfaber import specfun

    if not os.path.abspath(gfaber.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: gfaber imported from {gfaber.__file__}\n")
        return 2
    import check
    import measure
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    setups = setup_times(args.workload, args.seed)
    cli = args.workload == "cli_cold"
    min_units = workloads.CLI_MIN_INVOCATIONS if cli else 1
    rng = random.Random(f"passes-{args.seed}")
    run = runner_for(args.workload)

    print(
        f"env workload={args.workload} seed={args.seed} "
        f"backend={specfun.backend()} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={os.cpu_count()} "
        f"git={git_revision()} units={len(units)} "
        f"grid_points={sum(len(u.scenario.snr_grid) for u in units) if not cli else 0}"
    )
    if args.trace:
        untraced = measure.timed_passes(units, run, args.seconds / 2, rng)
        tracer = tracing.Tracer()
        if cli:
            run = runner_for(args.workload, traced=True)
        else:
            tracer.install()
        try:
            timing = measure.timed_passes(
                units, run, 0.0, rng, tracer=tracer
            )
        finally:
            tracer.uninstall()
        if cli:
            for path in run.counter_files:
                with open(path, encoding="utf-8") as handle:
                    tracer.merge(json.load(handle)["counters"])
    else:
        timing = measure.timed_passes(
            units, run, args.seconds, rng, min_units=min_units
        )
    if cli:
        peak_rss_mb = run.peak_rss_kb / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(args.workload, args.seed, units, timing)
    table = value_table(args.workload, units, timing.outcomes)
    if args.write_reference:
        exits = {u.label: o.exit_code for u, o in zip(units, timing.outcomes)}
        check.write_reference(
            args.workload, args.seed, table, exits if cli else None
        )
    errors = {}
    for outcome in timing.outcomes:
        for name in outcome.errors:
            if name:
                errors[name] = errors.get(name, 0) + 1
    metrics, points, failed = end_to_end(
        args.workload, units, timing, setups, peak_rss_mb
    )
    print(
        f"run passes={timing.passes} elapsed_s={timing.elapsed_s:.3f} "
        f"attempted={points} failed={failed} exceptions={errors or 'none'} "
        f"setups_s={[round(s, 4) for s in setups]}"
    )
    print(f"checksum {check.checksum(table)}")
    for problem in problems[:20]:
        print(f"check-problem {problem}")
    print(f"check {'PASS' if not problems else 'FAIL'} problems={len(problems)}")

    spec = load_benchmark_spec()
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = traced_metrics(untraced, timing, tracer, wanted)
        out_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.dump(out_path, {"metrics": result})
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(out_path, ROOT)}")
        for name, base in tracing.RATIO_BASES.items():
            print(f"ratio-base {name} = {base}")
    else:
        result = metrics
        wanted = [m["name"] for m in spec["end_to_end"]]
    for name, (value, unit) in result.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": points,
        "failed": failed,
        "metrics": {
            name: {"value": result[name][0], "unit": result[name][1]}
            for name in wanted
        },
    }))
    return 0


def traced_metrics(untraced, traced, tracer, units_of):
    """Per-layer metrics of the traced pass, with the tracing overhead.

    ``units_of`` maps each metric name to its unit.
    """
    import tracing

    values = tracing.layer_metrics(tracer.counters)
    points = sum(o.points for o in traced.outcomes)
    untraced_rate = points / sum(unit_times(untraced))
    traced_rate = points / sum(unit_times(traced))
    values["trace.untraced_per_s"] = untraced_rate
    values["trace.traced_per_s"] = traced_rate
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    values.update(tracing.import_split(sys.executable, child_env(), ROOT))
    return {name: (value, units_of[name]) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
