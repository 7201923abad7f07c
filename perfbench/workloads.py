"""Seeded workload generators for the gfaber benchmark.

Every generator is a pure function of its seed: the same seed gives the
same scenarios in the same order.  The program under test receives only
the scenarios (or command lines) built here.

Domain scenarios are drawn by stratified sampling: the domain is cut into
fixed cells over the shape parameters and the antenna count, and every
seed draws the same number of scenarios in each cell.  The closed form's
cost depends mostly on which corner of the domain a scenario sits in
(failing points cost 20x more than resolved ones), and stratifying keeps
that mix, and with it the timing, the same from seed to seed.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass

from gfaber import aber, cli, fading, modulation, noise

#: closed_dense grid: -20 .. 60 dB in 0.1 dB steps (801 points).
DENSE_GRID = tuple(round(-20.0 + 0.1 * k, 1) for k in range(801))
#: closed_many grid: -20 .. 60 dB in 5 dB steps (17 points).
MANY_GRID = tuple(float(v) for v in range(-20, 61, 5))
ORACLE_PRESETS = ("fig1", "fig3", "fig5")
ORACLE_REL_TOL = 1e-10
CLI_QFIT_DRAWS = 8
#: Fewest CLI invocations per run.
CLI_MIN_INVOCATIONS = 100
#: Shape of the density printed by the pdf invocation.
PDF_ETA, PDF_MU = 0.3, 1.5

# One constellation per family member; orders are drawn per scenario.
_MOD_FAMILIES = (
    ("bfsk",),
    ("bpsk",),
    ("qpsk",),
    ("4pam", "8pam", "16pam"),
    ("8psk", "16psk", "32psk"),
    ("16qam", "64qam", "256qam"),
    ("8qam", "32qam", "128qam"),
)


@dataclass(frozen=True)
class Curve:
    """One labeled scenario; ``label`` is unique within a workload."""

    label: str
    scenario: aber.AberScenario


def preset_curves(names, grid=None):
    """The preset curves of ``names`` (from ``cli.PRESETS``) on ``grid``."""
    curves = []
    for name in names:
        preset = cli.PRESETS[name]
        mimo = fading.MimoConfig(*preset["mimo"])
        start, step, stop = preset["snr"]
        preset_grid = tuple(
            start + k * step for k in range(int((stop - start) / step) + 1)
        )
        for label, spec, mod_text, a in preset["curves"]:
            spec = dict(spec)
            model = spec.pop("model")
            if model == "eta-mu-unified":
                params = fading.special_case_params("eta-mu", **spec)
            else:
                params = fading.parse_fading_json({"model": model, **spec})
            scenario = aber.AberScenario(
                fading=params,
                mimo=mimo,
                noise=noise.builtin_fit(a),
                modulation=modulation.parse_modulation(mod_text),
                snr_grid=grid if grid is not None else preset_grid,
            )
            curves.append(Curve(f"{name}/{label}", scenario))
    return curves


def _lhs(rng, n):
    """``n`` stratified draws in [0, 1), one per cell of width 1/n, in
    random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _with_fraction(value, n, frac, lowest):
    """``value`` moved by less than 1/n so that ``n * value`` has the
    fractional part ``frac``, and kept at or above ``lowest``."""
    moved = (math.floor(n * value) + frac) / n
    return moved if moved >= lowest else moved + 1.0 / n


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _eta_to_lambda(eta):
    """Format-2 shape with the same (h, |H|) as format-1 ``eta``."""
    return (1.0 - eta) / (1.0 + eta)


def _mimo_buckets(count):
    """(nt, nr) pairs with nt, nr in 1..8, split into ``count`` buckets of
    equal width in log N (N = nt * nr, up to 64)."""
    buckets = [[] for _ in range(count)]
    for nt in range(1, 9):
        for nr in range(1, 9):
            index = min(int(count * math.log(nt * nr) / math.log(64)), count - 1)
            buckets[index].append((nt, nr))
    return buckets


@dataclass(frozen=True)
class Strata:
    """How a workload divides the domain into cells, one draw set each.

    eta-mu cells: ``eta_bins`` equal bins of log eta in [1e-6, 1e6] x
    MIMO buckets x both formats.  kappa-mu shadowed cells: kappa = 0 plus
    ``kappa_bins - 1`` bins of log kappa in [1e-2, 1e3] x ``m_bins`` bins
    of log m in [0.5, M_LARGE] x MIMO buckets.  Each cell gets
    ``per_cell`` uniform draws within it.
    """

    eta_bins: int
    kappa_bins: int
    m_bins: int
    mimo_buckets: int
    per_cell: int


def _draw_domain(rng, strata, grid_for):
    """Scenarios over the whole domain, stratified by ``strata``.

    The closed form's cost and failures depend jointly on the shape
    parameters and the antenna count, so cells cover their joint range;
    mu is log-uniform in [0.5, 4]; the noise shape runs through every
    tabulated a and the modulation through every family in equal shares.
    """
    mimo = _mimo_buckets(strata.mimo_buckets)
    cells = []
    for fmt in ("eta1", "eta2"):
        for e in range(strata.eta_bins):
            for b in range(strata.mimo_buckets):
                cells.append((fmt, e, b))
    for k in range(strata.kappa_bins):
        for mb in range(strata.m_bins):
            for b in range(strata.mimo_buckets):
                cells.append(("kms", (k, mb), b))
    count = len(cells) * strata.per_cell
    shapes = list(noise.TABULATED_A) * (count // len(noise.TABULATED_A) + 1)
    mods = list(_MOD_FAMILIES) * (count // len(_MOD_FAMILIES) + 1)
    rng.shuffle(shapes)
    rng.shuffle(mods)
    # The Gauss 2F1 kernel takes its slow path when N*mu (eta-mu) or N*m
    # (shadowed) lies within 0.05 of an integer; so the fractional part
    # of that product is stratified too, leaving the share of scenarios
    # on the slow path the same for every seed.
    per_family = collections.Counter(family for family, _, _ in cells)
    fracs = {
        family: _lhs(rng, n * strata.per_cell)
        for family, n in per_family.items()
    }
    scenarios = []
    for family, shape_cell, bucket in cells:
        for _ in range(strata.per_cell):
            i = len(scenarios)
            frac = fracs[family].pop()
            nt, nr = rng.choice(mimo[bucket])
            n = nt * nr
            mu = _log_uniform(rng.random(), 0.5, 4.0)
            if family != "kms":
                mu = _with_fraction(mu, n, frac, 0.5)
            if family == "kms":
                k, mb = shape_cell
                if k == 0:
                    kappa = 0.0
                else:
                    width = 1.0 / (strata.kappa_bins - 1)
                    kappa = _log_uniform((k - 1 + rng.random()) * width, 1e-2, 1e3)
                m = _with_fraction(_log_uniform(
                    (mb + rng.random()) / strata.m_bins, 0.5, fading.M_LARGE
                ), n, frac, 0.5)
                params = fading.KappaMuShadowedParams(kappa=kappa, mu=mu, m=m)
            else:
                eta = _log_uniform(
                    (shape_cell + rng.random()) / strata.eta_bins, 1e-6, 1e6
                )
                if family == "eta1":
                    params = fading.EtaMuParams(shape=eta, mu=mu)
                else:
                    params = fading.EtaMuParams(
                        shape=_eta_to_lambda(eta), mu=mu, fmt=fading.FORMAT2
                    )
            scenarios.append((
                family,
                aber.AberScenario(
                    fading=params,
                    mimo=fading.MimoConfig(nt, nr),
                    noise=noise.builtin_fit(shapes[i]),
                    modulation=modulation.parse_modulation(rng.choice(mods[i])),
                    snr_grid=grid_for(rng),
                ),
            ))
    return scenarios


def _corner(params, nt, nr, a, mod_text, grid):
    return aber.AberScenario(
        fading=params,
        mimo=fading.MimoConfig(nt, nr),
        noise=noise.builtin_fit(a),
        modulation=modulation.parse_modulation(mod_text),
        snr_grid=grid,
    )


def corner_curves(grid):
    """Known hard points of the domain, present in every seed's draw.

    eta = 1e-6 and kappa = 1e3 push the hypergeometric series to its
    term cap at low SNR; the 8x8 64-QAM scenario makes ``hyp2f1`` raise
    a bare OverflowError; the shadowed 2x1 scenario has an error rate
    around 1e-228 at 30 dB, below the check's absolute floor.
    """
    return [
        Curve(
            "corner/eta1e-6",
            _corner(fading.EtaMuParams(shape=1e-6, mu=1.0), 1, 1, 2.0,
                    "bpsk", grid),
        ),
        Curve(
            "corner/kappa1e3",
            _corner(fading.KappaMuShadowedParams(kappa=1e3, mu=1.0, m=1.0),
                    1, 1, 2.0, "bpsk", grid),
        ),
        Curve(
            "corner/overflow-8x8-64qam",
            _corner(fading.EtaMuParams(shape=3.668e-6, mu=2.447), 8, 8, 2.5,
                    "64qam", grid),
        ),
        Curve(
            "corner/tiny-kms-2x1",
            _corner(fading.KappaMuShadowedParams(kappa=218.9, mu=3.09,
                                                 m=1139.0),
                    2, 1, 1.0, "bpsk", grid),
        ),
    ]


#: 192 eta-mu and 240 kappa-mu shadowed scenarios.
MANY_STRATA = Strata(eta_bins=12, kappa_bins=6, m_bins=5, mimo_buckets=4,
                     per_cell=2)
#: 48 eta-mu and 36 kappa-mu shadowed scenarios.
ORACLE_STRATA = Strata(eta_bins=6, kappa_bins=3, m_bins=3, mimo_buckets=2,
                       per_cell=2)


def closed_dense(seed):
    """Every preset curve of fig1..fig6 on the 801-point dense grid.

    The seed only fixes the order in which the curves are visited.
    """
    curves = preset_curves(sorted(cli.PRESETS), DENSE_GRID)
    random.Random(seed).shuffle(curves)
    return curves


def closed_many(seed):
    """Seed-drawn domain scenarios plus the corner cases, 17 points each."""
    rng = random.Random(seed)
    drawn = _draw_domain(rng, MANY_STRATA, lambda _rng: MANY_GRID)
    curves = [
        Curve(f"drawn/{i:03d}-{family}", sc)
        for i, (family, sc) in enumerate(drawn)
    ]
    return curves + corner_curves(MANY_GRID)


def _short_grid(rng):
    """4 to 6 points from -20 dB upward, in 5 or 10 dB steps."""
    count = rng.randint(4, 6)
    step = rng.choice((5.0, 10.0))
    start = rng.choice((-20.0, -10.0, 0.0))
    return tuple(start + k * step for k in range(count))


def oracle_verify(seed):
    """Preset curves of fig1, fig3 and fig5 plus seed-drawn scenarios,
    each on a seed-drawn 4 to 6 point grid."""
    rng = random.Random(seed)
    curves = [
        Curve(c.label, aber.AberScenario(
            fading=c.scenario.fading, mimo=c.scenario.mimo,
            noise=c.scenario.noise, modulation=c.scenario.modulation,
            snr_grid=_short_grid(rng),
        ))
        for c in preset_curves(ORACLE_PRESETS)
    ]
    drawn = _draw_domain(rng, ORACLE_STRATA, _short_grid)
    curves += [
        Curve(f"drawn/{i:03d}-{family}", sc)
        for i, (family, sc) in enumerate(drawn)
    ]
    return curves


@dataclass(frozen=True)
class Invocation:
    """One CLI command line; ``kind`` selects how its output is checked."""

    label: str
    kind: str
    argv: tuple
    #: The scenarios whose values an aber invocation prints, by column.
    curves: tuple = ()


def cli_cold(seed):
    """The CLI command lines, run one process at a time.

    Every preset, one verify run, seed-drawn untabulated qfit shapes, the
    fit table, a density with its norm check, and two inputs that fail
    today: eta = 1e-6 exits 3 with gaps, and the 8x8 64-QAM scenario
    exits with an OverflowError traceback.
    """
    rng = random.Random(seed)
    calls = [
        Invocation(f"aber-{name}", "aber", ("aber", "--preset", name),
                   tuple(preset_curves([name])))
        for name in sorted(cli.PRESETS)
    ]
    calls.append(Invocation(
        "verify-kms", "verify",
        ("verify", "--model", "kappa-mu-shadowed", "--kappa", "2", "--mu",
         "1", "--m", "2", "--snr", "0:5:20"),
    ))
    # One shape per equal slice of [A_MIN, A_MAX]: a refit costs ten
    # times more above a = 2.5 than below 2, so unstratified draws would
    # make the run's length a matter of luck.
    width = (noise.A_MAX - noise.A_MIN) / CLI_QFIT_DRAWS
    for k in range(CLI_QFIT_DRAWS):
        a = noise.TABULATED_A[0]
        while a in noise.TABULATED_A:
            a = round(noise.A_MIN + width * (k + rng.random()), 3)
        calls.append(
            Invocation(f"qfit-{a:g}", "qfit", ("qfit", "--a", f"{a:g}"))
        )
    calls.append(Invocation("qfit-table", "qfit-table", ("qfit", "--table")))
    calls.append(Invocation(
        "pdf-norm", "pdf",
        ("pdf", "--model", "eta-mu", "--eta", f"{PDF_ETA:g}", "--mu",
         f"{PDF_MU:g}", "--gamma", "0.5,1,2", "--check-norm"),
    ))
    grid = (-20.0, -10.0, 0.0)
    calls.append(Invocation(
        "aber-eta1e-6", "aber",
        ("aber", "--model", "eta-mu", "--eta", "1e-6", "--mu", "1",
         "--snr=-20:10:0"),
        (corner_curves(grid)[0],),
    ))
    calls.append(Invocation(
        "aber-overflow-8x8-64qam", "aber",
        ("aber", "--model", "eta-mu", "--eta", "3.668e-6", "--mu", "2.447",
         "--nt", "8", "--nr", "8", "--a", "2.5", "--mod", "64qam",
         "--snr=-20:10:0"),
        (corner_curves(grid)[2],),
    ))
    return calls
