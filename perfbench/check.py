"""Output checks, run after the timed passes.

Three checks, each giving a list of problems (empty when all is well):

* :func:`check_against_oracle` compares closed-form values with the
  approximation oracle at ``ORACLE_REL`` relative plus ``ABS_FLOOR``
  (:func:`check_verify_columns` does so for oracle_verify); where the
  two disagree, further references decide (see :func:`_compare_point`);
* :func:`check_against_reference` compares every value with the
  committed reference of the default seed at ``REFERENCE_REL``;
* :func:`check_cli` checks what each CLI invocation printed.

:func:`checksum` digests every value formatted as ``%.8e``.
"""

from __future__ import annotations

import collections
import gzip
import hashlib
import json
import math
import os
import random
from dataclasses import replace

from gfaber import aber, fading, modulation, nlfit, noise, quadrature

import workloads

ORACLE_REL = 1e-6
REFERENCE_REL = 1e-10
#: Values this small are underflow noise of the log-space assembly, not
#: error rates: kappa = 218.9, mu = 3.09, m = 1139, 2x1, a = 1, BPSK at
#: 30 dB gives 0.0 in closed form and -4.2e-228 from the oracle.
ABS_FLOOR = 1e-200
#: Closed-form points per curve compared with the oracle on every run.
ORACLE_SAMPLES = {"closed_dense": 4, "closed_many": 1}
#: A refit is usable when its worst deviation stays below this share of
#: max(1, Q_a(0)), the bound the test suite holds untabulated shapes to.
QFIT_DEV_SHARE = 0.05

REFERENCE_DIR = os.path.join(os.path.dirname(__file__), "reference")
DEFAULT_SEED = 0


def _close(value, expected, rel):
    return abs(value - expected) <= rel * abs(expected) + ABS_FLOOR


def approx_oracle(scenario, snr_db):
    """Approximation-oracle value at one point, or None if it fails."""
    try:
        return aber.aber_point(
            scenario, snr_db, aber.METHOD_ORACLE_APPROX,
            rel_tol=workloads.ORACLE_REL_TOL,
        )
    except Exception:  # noqa: BLE001 - an oracle gap leaves nothing to compare
        return None


def rescaled_oracle(scenario, snr_db):
    """The approximation oracle on a rescaled SNR axis, or None if it fails.

    Same density, weight and Gauss-Kronrod routine as
    :func:`approx_oracle`, integrated over ``x = g / s`` with ``s`` the
    smaller of the mean SNR ``N * mean_power`` and the weight's slowest
    decay length: the mass then sits around ``x = 1``, the middle of the
    first panel.
    On the raw axis every node of a panel can miss a density peak that is
    narrow against the panel (large N, or kappa in the hundreds), and the
    oracle then converges to a value that is too small.
    """
    gbar = 10.0 ** (snr_db / 10.0)
    params = replace(scenario.fading, mean_power=gbar)
    a_const, b_const = modulation.mod_constants(scenario.modulation)
    # At high SNR the weight, not the density, confines the mass.
    scale = min(
        scenario.mimo.branches * gbar, 1.0 / (b_const * min(scenario.noise.q))
    )
    if isinstance(params, fading.EtaMuParams):
        compact = fading.compact_eta_mu(params, scenario.mimo)
        log_pdf = fading.log_pdf_eta_mu
    else:
        compact = fading.compact_kms(params, scenario.mimo)
        log_pdf = fading.log_pdf_kms
    terms = tuple(zip(scenario.noise.p, scenario.noise.q))

    def integrand(x):
        if x <= 0.0:
            return 0.0
        g = scale * x
        lv = log_pdf(compact, g)
        density = math.exp(lv) if lv < 709.0 else math.inf
        if density == 0.0:
            return 0.0
        return scale * density * sum(
            p * math.exp(-q * b_const * g) for p, q in terms
        )

    try:
        return a_const * quadrature.integrate_semi_infinite(
            integrand, workloads.ORACLE_REL_TOL
        )
    except Exception:  # noqa: BLE001 - an oracle gap leaves nothing to compare
        return None


def precise_value(scenario, snr_db):
    """ABER by 30-digit mpmath quadrature of the density, or None.

    Independent of the package's kernels and quadrature: the density is
    rebuilt from its closed expression with mpmath's Bessel and Kummer
    functions.  Slow, so only points where the package's oracles
    disagree with the closed form come here.  None if mpmath is missing
    or does not converge.
    """
    try:
        import mpmath as mp
    except ImportError:
        return None
    params = scenario.fading
    n = scenario.mimo.branches
    a_const, b_const = modulation.mod_constants(scenario.modulation)
    with mp.workdps(30):
        gbar = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
        if isinstance(params, fading.EtaMuParams):
            h, big_h = (mp.mpf(v) for v in fading.eta_mu_hH(params))
            mu = mp.mpf(params.mu)
            m = mu * n + mp.mpf(0.5)
            beta = 2 * mu * h / gbar
            xi = 2 * mu * abs(big_h) / gbar
            if xi == 0:
                shape = 2 * mu * n
                log_psi = shape * mp.log(beta) - mp.loggamma(shape)

                def density(g):
                    return mp.exp(log_psi + (shape - 1) * mp.log(g) - beta * g)
            else:
                log_psi = (
                    mp.log(2) + mp.log(mp.pi) / 2 + mu * n * mp.log(h)
                    - mp.loggamma(mu * n) - (m - 1) * mp.log(abs(big_h))
                    + m * mp.log(mu / gbar)
                )

                def density(g):
                    return mp.exp(
                        log_psi + (m - 1) * mp.log(g) - beta * g
                    ) * mp.besseli(m - 1, xi * g)
        else:
            mu_t = n * mp.mpf(params.mu)
            m_t = n * mp.mpf(params.m)
            kappa = mp.mpf(params.kappa)
            g_agg = n * gbar
            beta = mu_t * (1 + kappa) / g_agg
            zeta = mu_t**2 * kappa * (1 + kappa) / ((mu_t * kappa + m_t) * g_agg)
            log_psi = (
                mu_t * mp.log(mu_t) + mu_t * mp.log1p(kappa)
                - mp.loggamma(mu_t) - m_t * mp.log1p(mu_t * kappa / m_t)
                - mu_t * mp.log(g_agg)
            )

            def density(g):
                return mp.exp(
                    log_psi + (mu_t - 1) * mp.log(g) - beta * g
                ) * mp.hyp1f1(m_t, mu_t, zeta * g)

        terms = [(mp.mpf(p), mp.mpf(q) * b_const) for p, q in zip(
            scenario.noise.p, scenario.noise.q)]

        def integrand(g):
            return density(g) * sum(p * mp.exp(-qb * g) for p, qb in terms)

        mean = n * gbar
        cuts = [0] + [mean * f for f in (1e-3, 1e-2, 0.1, 0.3, 0.6, 1, 1.5,
                                          2, 3, 5, 10)] + [mp.inf]
        try:
            return float(a_const * mp.quad(integrand, cuts))
        except Exception:  # noqa: BLE001 - e.g. mpmath's NoConvergence
            return None


def _compare_point(label, scenario, snr_db, closed, oracle):
    """Judge one closed-form point against its oracle value.

    Returns ``(problems, status)``.  The package's oracle is wrong in
    places: its Gauss-Kronrod nodes can all miss a density peak that is
    narrow against the panel, and ``log_kummer_1f1`` is off by up to a
    factor of 3 just past its switch to the asymptotic series (z a little
    above 4000).  So where the closed form and the oracle disagree:

    * the point passes if :func:`rescaled_oracle` matches the closed form
      (status ``"oracle-off"``);
    * if the two oracles agree with each other on a value above
      ``ABS_FLOOR``, the closed form must match :func:`precise_value`
      (status ``"oracle-off"``), or the point is a problem;
    * otherwise the oracles contradict each other, or both underflowed,
      and the point cannot be judged (status ``"unverified"``).

    Status ``"agree"`` is a plain match; ``"no-oracle"`` means the oracle
    did not resolve, so nothing is compared.
    """
    if oracle is None:
        return [], "no-oracle"
    if _close(closed, oracle, ORACLE_REL):
        return [], "agree"
    second = rescaled_oracle(scenario, snr_db)
    if second is not None and _close(closed, second, ORACLE_REL):
        return [], "oracle-off"
    if second is None or abs(second) <= ABS_FLOOR or not _close(
        second, oracle, ORACLE_REL
    ):
        return [], "unverified"
    precise = precise_value(scenario, snr_db)
    if precise is not None and _close(closed, precise, ORACLE_REL):
        return [], "oracle-off"
    return [
        f"{label} at {snr_db:g} dB: closed form {closed!r} vs oracle "
        f"{oracle!r}, rescaled oracle {second!r}, mpmath {precise!r}"
    ], "problem"


def check_against_oracle(curves, values, samples, rng):
    """Compare closed-form values with the approximation oracle.

    ``values[i]`` are the closed-form values of ``curves[i]``; ``samples``
    resolved points per curve, drawn by ``rng``, are compared.  Returns
    the problems and a count of each :func:`_compare_point` status.
    """
    problems, statuses = [], collections.Counter()
    for curve, closed in zip(curves, values):
        grid = curve.scenario.snr_grid
        resolved = [i for i, v in enumerate(closed) if v is not None]
        for i in sorted(rng.sample(resolved, min(samples, len(resolved)))):
            found, status = _compare_point(
                curve.label, curve.scenario, grid[i], closed[i],
                approx_oracle(curve.scenario, grid[i]),
            )
            problems += found
            statuses[status] += 1
    return problems, statuses


def check_verify_columns(curves, outcomes):
    """oracle_verify: closed form against the approximation oracle that the
    timed run computed, at every point where both resolved.  Returns the
    problems and a count of each :func:`_compare_point` status."""
    problems, statuses = [], collections.Counter()
    for curve, outcome in zip(curves, outcomes):
        closed, approx, _ = outcome.values
        for snr_db, c_val, a_val in zip(curve.scenario.snr_grid, closed, approx):
            if c_val is None:
                continue
            found, status = _compare_point(
                curve.label, curve.scenario, snr_db, c_val, a_val
            )
            problems += found
            statuses[status] += 1
    return problems, statuses


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload):
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        return json.load(handle)


def write_reference(workload, seed, table, exit_codes=None):
    """Store ``table`` (label -> list of value lists) for ``seed``, with
    the exit code of each CLI invocation."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "values": table}
    if exit_codes is not None:
        payload["exit_codes"] = exit_codes
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical across regenerations.
    with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as handle:
        handle.write(text.encode("utf-8"))


def check_against_reference(table, reference, judge_former_gap):
    """Compare every value with the reference at ``REFERENCE_REL``.

    A reference value that is now a gap fails.  A reference gap that now
    has a value is judged by ``judge_former_gap(label, column, i, value)``,
    which returns a list of problems.
    """
    problems = []
    if sorted(table) != sorted(reference):
        return ["the set of curves differs from the reference"]
    for label in sorted(table):
        if len(table[label]) < len(reference[label]):
            problems.append(f"{label}: fewer value rows than the reference")
        for column, (now, ref) in enumerate(zip(table[label], reference[label])):
            if len(now) != len(ref):
                problems.append(f"{label}: {len(now)} values, reference {len(ref)}")
                continue
            for i, (v, r) in enumerate(zip(now, ref)):
                if r is not None and v is None:
                    problems.append(f"{label}[{column}][{i}]: value became a gap")
                elif r is not None and not _close(v, r, REFERENCE_REL):
                    problems.append(
                        f"{label}[{column}][{i}]: {v!r} vs reference {r!r}"
                    )
                elif r is None and v is not None:
                    problems += judge_former_gap(label, column, i, v)
    return problems


def judge_against_oracle(curves_by_label):
    """A ``judge_former_gap`` for closed-form columns: the value must pass
    :func:`_compare_point` against the approximation oracle."""

    def judge(label, column, i, value):
        if column != 0:
            return []  # oracle columns have no closed form to judge
        scenario = curves_by_label[label].scenario
        snr_db = scenario.snr_grid[i]
        return _compare_point(
            label, scenario, snr_db, value, approx_oracle(scenario, snr_db)
        )[0]

    return judge


def checksum(table):
    """sha256 of every value as ``%.8e`` (gaps as ``nan``), by label."""
    digest = hashlib.sha256()
    for label in sorted(table):
        digest.update(label.encode())
        for column in table[label]:
            digest.update(
                ",".join(
                    "nan" if v is None else "%.8e" % v for v in column
                ).encode()
            )
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# CLI output


def _float(text):
    value = float(text)
    return None if math.isnan(value) else value


def cli_values(kind, stdout):
    """The numbers an invocation printed, as lists of value rows.

    aber and pdf print CSV (header skipped); qfit prints fit constants
    as JSON; verify prints deviations only, which are not compared.
    """
    if kind in ("aber", "pdf"):
        rows = stdout.strip().splitlines()[1:]
        return [
            [_float(cell) for cell in row.split(",") if cell != "norm"]
            for row in rows
        ]
    if kind == "qfit":
        fit = json.loads(stdout)
        return [fit["p"] + fit["q"] + [fit["max_abs_dev"]]]
    if kind == "qfit-table":
        return [r["p"] + r["q"] + [r["max_abs_dev"]] for r in json.loads(stdout)]
    return []


def _check_aber_output(invocation, stdout, rng):
    """Sampled CSV values of an aber invocation against the oracle."""
    rows = cli_values("aber", stdout)
    if not rows:
        return []
    problems = []
    for column, curve in enumerate(invocation.curves, start=1):
        grid = curve.scenario.snr_grid
        if [row[0] for row in rows] != list(grid):
            return [f"{invocation.label}: printed grid differs from the scenario"]
        values = [row[column] for row in rows]
        for i in rng.sample(range(len(grid)), min(2, len(grid))):
            if values[i] is not None:
                problems += _compare_point(
                    f"{invocation.label} {curve.label}", curve.scenario,
                    grid[i], values[i], approx_oracle(curve.scenario, grid[i]),
                )[0]
    return problems


def _check_qfit_row(label, a, p, q, printed_dev):
    fit = noise.QApprox(a=a, p=p, q=q)
    dev = nlfit.max_abs_deviation(fit)
    scale = max(1.0, noise.q_exact(noise.make_noise_model(a), 0.0))
    problems = []
    if not abs(dev - printed_dev) <= 1e-9 * dev:
        problems.append(f"{label}: printed max_abs_dev {printed_dev!r}, actual {dev!r}")
    if not dev < QFIT_DEV_SHARE * scale:
        problems.append(f"{label}: fit deviation {dev!r} is not usable")
    return problems


def check_cli(invocation, outcome, rng):
    """Check one invocation's output.

    A failing exit is counted as a failure, not reported as a problem,
    unless the invocation printed values that disagree with the oracle
    or is the verify run, whose verdict is itself an output check.
    """
    kind, stdout = invocation.kind, outcome.stdout
    try:
        if kind == "aber":
            return _check_aber_output(invocation, stdout, rng)
        if kind == "verify":
            # A FAIL verdict is the closed form disagreeing with the oracles.
            if outcome.exit_code == 0 and stdout.rstrip().endswith("-> PASS"):
                return []
            return [f"{invocation.label}: exit {outcome.exit_code}, no PASS verdict"]
        if outcome.exit_code != 0:
            return []
        if kind == "qfit":
            fit = json.loads(stdout)
            return _check_qfit_row(
                invocation.label, fit["a"], fit["p"], fit["q"], fit["max_abs_dev"]
            )
        if kind == "qfit-table":
            problems = []
            for row in json.loads(stdout):
                p, q = noise.BUILTIN_FITS[row["a"]]
                if tuple(row["p"]) != p or tuple(row["q"]) != q:
                    problems.append(f"{invocation.label}: row a={row['a']} differs")
            return problems
        if kind == "pdf":
            return _check_pdf(invocation, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{invocation.label}: unreadable output ({exc})"]
    return [f"{invocation.label}: unknown kind {kind}"]


def _check_pdf(invocation, stdout):
    rows = stdout.strip().splitlines()[1:]
    params = fading.EtaMuParams(shape=workloads.PDF_ETA, mu=workloads.PDF_MU)
    problems = []
    for row in rows:
        key, value = row.split(",")
        if key == "norm":
            if not abs(float(value) - 1.0) <= 1e-6:
                problems.append(f"{invocation.label}: norm {value}")
            continue
        expected = fading.pdf_eta_mu(params, fading.MimoConfig(), float(key))
        if not abs(float(value) - expected) <= 1e-8 * expected:
            problems.append(f"{invocation.label}: pdf({key}) = {value}, expected {expected!r}")
    return problems


def sample_rng(seed):
    """The rng that picks which points the oracle check compares."""
    return random.Random(f"check-{seed}")
