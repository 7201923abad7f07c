"""Running and timing the benchmark's units of work.

A unit is one curve (in-process workloads) or one CLI invocation
(cli_cold).  One caller runs the units serially in a closed loop: the next
unit starts when the previous one has returned.  Units are timed on
repeated passes spread over the run, each pass in its own seeded order, so
that every unit sees the host at several moments.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

from gfaber import aber

import workloads

VERIFY_METHODS = (
    aber.METHOD_CLOSED,
    aber.METHOD_ORACLE_APPROX,
    aber.METHOD_ORACLE_EXACT,
)


@dataclass(frozen=True)
class Outcome:
    """What one unit produced.

    ``values`` holds one tuple of per-point values (``None`` for a gap)
    per method run; ``errors`` holds the exception type name per method,
    or ``None`` where the sweep returned.  For a CLI invocation
    ``values`` is empty and ``exit_code``, ``stdout`` carry the result.
    """

    values: tuple = ()
    errors: tuple = ()
    exit_code: int = 0
    stdout: str = ""
    points: int = 0
    failed: int = 0


def _sweep_values(scenario, method):
    """One sweep's values, or all gaps and the exception type if it raised.

    Every exception counts, not only the package's own: a bare
    OverflowError from a kernel is a failure of every point of the curve.
    """
    try:
        curve = aber.sweep(scenario, method, rel_tol=workloads.ORACLE_REL_TOL)
    except Exception as exc:  # noqa: BLE001 - every exception is a failure
        return (None,) * len(scenario.snr_grid), type(exc).__name__
    return curve.values(), None


def run_closed(curve):
    values, error = _sweep_values(curve.scenario, aber.METHOD_CLOSED)
    return Outcome(
        values=(values,),
        errors=(error,),
        points=len(values),
        failed=sum(v is None for v in values),
    )


def run_verify(curve):
    """Closed form, approximation oracle and exact oracle of one curve.

    A grid point counts once for all three methods and fails if any of
    them left a gap there.
    """
    results = [_sweep_values(curve.scenario, m) for m in VERIFY_METHODS]
    values = tuple(v for v, _ in results)
    failed = sum(
        any(column[i] is None for column in values)
        for i in range(len(curve.scenario.snr_grid))
    )
    return Outcome(
        values=values,
        errors=tuple(e for _, e in results),
        points=len(curve.scenario.snr_grid),
        failed=failed,
    )


class CliRunner:
    """Runs CLI invocations as child processes and tracks their peak RSS.

    Output goes to files in ``out_dir``; the child is reaped with
    ``os.wait4`` so that its own peak RSS is known.
    """

    def __init__(self, root, out_dir, env, traced_script=None):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.traced_script = traced_script
        self.peak_rss_kb = 0
        self.counter_files = []

    def command(self, invocation):
        if self.traced_script is None:
            return [sys.executable, "-m", "gfaber.cli", *invocation.argv]
        counters = os.path.join(
            self.out_dir, f"counters-{len(self.counter_files)}.json"
        )
        self.counter_files.append(counters)
        return [sys.executable, self.traced_script, counters,
                *invocation.argv]

    def __call__(self, invocation):
        out_path = os.path.join(self.out_dir, "stdout.txt")
        err_path = os.path.join(self.out_dir, "stderr.txt")
        cmd = self.command(invocation)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=self.root, env=self.env,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        return Outcome(
            exit_code=proc.returncode,
            stdout=stdout,
            points=1,
            failed=int(proc.returncode != 0),
        )


#: Seconds between two runs of :func:`reference_loop` during the passes.
REFERENCE_EVERY_S = 0.05


def reference_loop():
    """A fixed pure-Python loop, timed during the passes to track the
    speed of the host, which drifts by tens of percent over minutes."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


@dataclass
class Timing:
    """Per-unit wall times over the passes of one run, with the times of
    :func:`reference_loop` taken between units."""

    times: list
    outcomes: list
    passes: int
    elapsed_s: float
    consistent: bool
    reference_s: list


def timed_passes(units, run, seconds, rng, min_units=1, tracer=None):
    """Run every unit once per pass until ``seconds`` are spent.

    At least one full pass, and at least ``min_units`` unit runs, are
    always made; another pass starts only if the last one would still
    fit in the time left.  ``consistent`` is False if any unit produced a
    different outcome on a later pass.  With a ``tracer``, one span per
    pass and per unit is recorded.
    """
    clock = time.perf_counter
    times = [[] for _ in units]
    outcomes = [None] * len(units)
    consistent = True
    reference_s = []
    last_reference = -REFERENCE_EVERY_S
    passes = 0
    start = clock()
    deadline = start + seconds
    while True:
        order = list(range(len(units)))
        rng.shuffle(order)
        pass_start = clock()
        pass_span = None
        if tracer is not None:
            pass_span = tracer.span(f"pass-{passes}", None, pass_start, None)
        for i in order:
            t0 = clock()
            if t0 - last_reference >= REFERENCE_EVERY_S:
                reference_loop()
                last_reference = clock()
                reference_s.append(last_reference - t0)
                t0 = clock()
            outcome = run(units[i])
            t1 = clock()
            times[i].append(t1 - t0)
            if tracer is not None:
                tracer.span(units[i].label, pass_span, t0, t1)
            if outcomes[i] is None:
                outcomes[i] = outcome
            elif outcome != outcomes[i]:
                consistent = False
        passes += 1
        now = clock()
        if tracer is not None:
            tracer.spans[pass_span]["end"] = now
        if passes * len(units) >= min_units and now + (now - pass_start) > deadline:
            break
    return Timing(
        times, outcomes, passes, clock() - start, consistent, reference_s
    )
