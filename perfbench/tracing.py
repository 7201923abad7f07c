"""Per-layer counters and spans for the traced benchmark run.

:class:`Tracer` rebinds public functions of the gfaber modules with
wrappers that count calls and exceptions and record inclusive and self
time.  Self time is inclusive time minus the time spent in nested wrapped
calls.  Every call site in the package resolves these functions through a
module attribute or a module global, so the rebinding is seen
everywhere; benchmark code must likewise call ``aber.sweep``, not the
``gfaber.sweep`` name bound at package import.

Spans (one per pass, curve, sweep or CLI invocation) are kept in memory
and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import subprocess
import sys
import time

#: (metric prefix, module, function names) of every wrapped function.
#: Functions sharing a prefix share one counter.
WRAPPED = (
    ("specfun.ln_gamma", "gfaber.specfun", ("ln_gamma",)),
    ("specfun.gauss_2f1", "gfaber.specfun", ("gauss_2f1",)),
    ("specfun.log_bessel_i", "gfaber.specfun", ("log_bessel_i",)),
    ("specfun.log_kummer_1f1", "gfaber.specfun", ("log_kummer_1f1",)),
    (
        "specfun.upper_incomplete_gamma",
        "gfaber.specfun",
        ("upper_incomplete_gamma",),
    ),
    ("fading.compact", "gfaber.fading", ("compact_eta_mu", "compact_kms")),
    ("fading.log_pdf", "gfaber.fading", ("log_pdf_eta_mu", "log_pdf_kms")),
    ("noise.q_exact", "gfaber.noise", ("q_exact",)),
    ("quadrature.integrate", "gfaber.quadrature", ("integrate_semi_infinite",)),
    ("aber.point", "gfaber.aber", ("aber_point",)),
    ("aber.closed", "gfaber.aber", ("aber_closed",)),
    ("aber.sweep", "gfaber.aber", ("sweep",)),
    ("nlfit.fit", "gfaber.nlfit", ("fit_q_approx",)),
    ("nlfit.lm", "gfaber.nlfit", ("levenberg_marquardt",)),
    ("cli.main", "gfaber.cli", ("main",)),
)


class Counter:
    """Calls, exceptions, inclusive and self seconds of one layer."""

    __slots__ = ("calls", "errors", "incl_s", "self_s", "iterations")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.iterations = 0

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def add(self, other):
        for k in self.__slots__:
            setattr(self, k, getattr(self, k) + other[k])


class Tracer:
    """Installs timing wrappers on the gfaber modules; see module doc."""

    def __init__(self):
        self.counters = {prefix: Counter() for prefix, _, _ in WRAPPED}
        self.spans = []
        self._originals = []
        # Child-time accumulators of the wrapped calls now on the stack.
        self._stack = [0.0]

    def install(self):
        for prefix, module_name, names in WRAPPED:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(
                    module, name, self._wrap(original, self.counters[prefix])
                )

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, fn, counter):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counter.errors += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                counter.calls += 1
                counter.incl_s += elapsed
                counter.self_s += elapsed - children
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                counter.iterations += iterations
            return result

        return wrapper

    def span(self, name, parent, start, end):
        """Record one span; returns its id for use as a parent."""
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "parent": parent,
             "start": start, "end": end}
        )
        return span_id

    def counter_dicts(self):
        return {k: c.to_dict() for k, c in self.counters.items()}

    def merge(self, counter_dicts):
        """Add counters recorded by another process (a traced CLI child)."""
        for prefix, values in counter_dicts.items():
            self.counters[prefix].add(values)

    def dump(self, path, extra=None):
        payload = {"counters": self.counter_dicts(), "spans": self.spans}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counters):
    """The per-layer metrics, by name, from merged counter dicts.

    Each ratio states its base in :data:`RATIO_BASES`; a ratio whose base
    is zero (the layer sat idle) reads 0.
    """
    c = counters
    out = {}
    for prefix in (
        "specfun.ln_gamma", "specfun.gauss_2f1", "specfun.log_bessel_i",
        "specfun.log_kummer_1f1", "specfun.upper_incomplete_gamma",
        "fading.compact", "fading.log_pdf", "noise.q_exact",
    ):
        out[f"{prefix}.calls"] = c[prefix].calls
        out[f"{prefix}.self_s"] = c[prefix].self_s
        if prefix.startswith("specfun.") and prefix != "specfun.ln_gamma":
            out[f"{prefix}.errors"] = c[prefix].errors
    quad = c["quadrature.integrate"]
    out["quadrature.integrals"] = quad.calls
    out["quadrature.integrate.self_s"] = quad.self_s
    out["quadrature.evals_per_integral"] = _ratio(
        c["fading.log_pdf"].calls, quad.calls
    )
    out["quadrature.errors"] = quad.errors
    point = c["aber.point"]
    out["aber.points"] = point.calls
    out["aber.point.self_s"] = point.self_s
    out["aber.closed.self_s"] = c["aber.closed"].self_s
    out["aber.sweep.self_s"] = c["aber.sweep"].self_s
    out["aber.resolved_ratio"] = _ratio(point.calls - point.errors, point.calls)
    fit, lm = c["nlfit.fit"], c["nlfit.lm"]
    out["nlfit.fits"] = fit.calls
    out["nlfit.fit.self_s"] = fit.self_s
    out["nlfit.lm.calls"] = lm.calls
    out["nlfit.lm.iterations"] = lm.iterations
    out["nlfit.lm.self_s"] = lm.self_s
    out["nlfit.lm.converged_ratio"] = _ratio(lm.calls - lm.errors, lm.calls)
    out["cli.main.self_s"] = c["cli.main"].self_s
    return out


RATIO_BASES = {
    "quadrature.evals_per_integral": "fading.log_pdf.calls / quadrature.integrals",
    "aber.resolved_ratio": "(aber.points - aber_point exceptions) / aber.points",
    "nlfit.lm.converged_ratio": "LM runs returned / LM runs started",
    "trace.overhead_frac": "1 - traced rate / untraced rate, same units",
}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( +)(\S+)")


def import_split(python, env, cwd, repeats=3):
    """Bare-interpreter start and ``gfaber.cli`` import times, in ms.

    ``cli.import_ms`` sums the cumulative ``-X importtime`` entries of the
    top-level gfaber imports; ``cli.numpy_import_ms`` is numpy's
    cumulative entry.  Each figure is the median of ``repeats`` runs.
    """
    starts, imports, numpys = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import gfaber.cli"],
            env=env, cwd=cwd, check=True, capture_output=True, text=True,
        )
        total_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if not match:
                continue
            cumulative, indent, name = (
                int(match.group(2)), len(match.group(3)), match.group(4)
            )
            if indent == 1 and name.split(".")[0] == "gfaber":
                total_us += cumulative
            if name == "numpy":
                numpy_us = max(numpy_us, cumulative)
        imports.append(total_us / 1e3)
        numpys.append(numpy_us / 1e3)
    return {
        "cli.python_start_ms": statistics.median(starts),
        "cli.import_ms": statistics.median(imports),
        "cli.numpy_import_ms": statistics.median(numpys),
    }


def main_traced(argv):
    """Entry of a traced CLI child: ``traced_cli.py OUT.json ARGS...``."""
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from gfaber import cli

    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
