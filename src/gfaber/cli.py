"""Command-line front end.

Subcommands
-----------
``aber``    sweep a scenario over an SNR grid (CSV, or JSON with --json)
``verify``  compare the closed form against both quadrature oracles
``qfit``    refit the 4-exponential noise model / print the built-in rows
``pdf``     evaluate a fading density (CSV), optionally with its norm

``aber`` and ``verify`` take scenarios from flags, a JSON config file
(--config), or a named preset (--preset fig1..fig6); all three go through
one scenario builder, so equal inputs give equal scenarios.  ``pdf``
takes flags only.  Presets are representative scenario families — their
exact parameter values are choices documented in the JSON echo, not
authoritative reference data.

SNR grids are given as ``start:step:stop`` in dB and converted to linear
power as ``10^(dB/10)``.  CSV output is byte-deterministic: fixed
9-significant-digit scientific notation, ``\\n`` line endings, and a
header row naming the columns.

Exit codes: 0 success, 1 verification tolerance breach, 2 usage or
configuration error, 3 numerical failure (including a floating-point
overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import replace

from gfaber import aber as aber_mod
from gfaber import fading as fading_mod
from gfaber import modulation as modulation_mod
from gfaber import noise as noise_mod
from gfaber import quadrature
from gfaber.errors import GfaberError, NotTabulatedError

VERIFY_TOL = 1e-6
_FMT = "%.8e"


class UsageError(Exception):
    """Configuration problem attributable to the invocation."""


# --------------------------------------------------------------------------
# presets


def _preset(note, mimo, curves, snr=(0.0, 2.0, 30.0)):
    return {"note": note, "mimo": mimo, "curves": curves, "snr": snr}


_ETA_CURVES = (
    ("bpsk_a2_eta0.5_mu1", {"model": "eta-mu", "eta": 0.5, "mu": 1.0}, "bpsk", 2.0),
    ("qpsk_a1_eta0.5_mu2", {"model": "eta-mu", "eta": 0.5, "mu": 2.0}, "qpsk", 1.0),
    ("8psk_a1.5_eta0.2_mu1", {"model": "eta-mu", "eta": 0.2, "mu": 1.0}, "8psk", 1.5),
    ("16qam_a2.5_eta0.9_mu4", {"model": "eta-mu", "eta": 0.9, "mu": 4.0}, "16qam", 2.5),
    ("4pam_a0.5_eta0.35_mu0.5", {"model": "eta-mu", "eta": 0.35, "mu": 0.5}, "4pam", 0.5),
)

_KMS_CURVES = (
    ("bpsk_a2_k2_mu2_m1", {"model": "kappa-mu-shadowed", "kappa": 2.0, "mu": 2.0, "m": 1.0}, "bpsk", 2.0),
    ("qpsk_a1_k5_mu1_m2", {"model": "kappa-mu-shadowed", "kappa": 5.0, "mu": 1.0, "m": 2.0}, "qpsk", 1.0),
    ("8psk_a1.5_k1_mu2_m5", {"model": "kappa-mu-shadowed", "kappa": 1.0, "mu": 2.0, "m": 5.0}, "8psk", 1.5),
    ("16qam_a2.5_k3_mu1_m0.5", {"model": "kappa-mu-shadowed", "kappa": 3.0, "mu": 1.0, "m": 0.5}, "16qam", 2.5),
    ("4pam_a0.5_k0_mu2_m1", {"model": "kappa-mu-shadowed", "kappa": 0.0, "mu": 2.0, "m": 1.0}, "4pam", 0.5),
)

_SPECIAL_CURVES = (
    ("rayleigh", {"model": "rayleigh"}, "bpsk", 2.0),
    ("rician_K2", {"model": "rician", "K": 2.0}, "bpsk", 2.0),
    ("rician_shadowed_K2_m1", {"model": "rician-shadowed", "K": 2.0, "m": 1.0}, "bpsk", 2.0),
    ("nakagami_m2", {"model": "nakagami-m", "m": 2.0}, "bpsk", 2.0),
    ("hoyt_q0.5", {"model": "hoyt", "q": 0.5}, "bpsk", 2.0),
    ("one_sided_gaussian", {"model": "one-sided-gaussian"}, "bpsk", 2.0),
)

_UNIFIED_ETA_CURVES = (
    ("eta0.1_mu0.5", {"model": "eta-mu-unified", "eta": 0.1, "mu": 0.5}, "bpsk", 2.0),
    ("eta0.5_mu1", {"model": "eta-mu-unified", "eta": 0.5, "mu": 1.0}, "bpsk", 2.0),
    ("eta0.9_mu2", {"model": "eta-mu-unified", "eta": 0.9, "mu": 2.0}, "bpsk", 2.0),
)

PRESETS = {
    "fig1": _preset(
        "eta-mu family, mixed modulations and noise shapes, 2x2 antennas",
        (2, 2),
        _ETA_CURVES,
    ),
    "fig2": _preset(
        "eta-mu family, mixed modulations and noise shapes, single antenna",
        (1, 1),
        _ETA_CURVES,
    ),
    "fig3": _preset(
        "kappa-mu shadowed family, mixed modulations and noise shapes, "
        "2x2 antennas",
        (2, 2),
        _KMS_CURVES,
    ),
    "fig4": _preset(
        "kappa-mu shadowed family, mixed modulations and noise shapes, "
        "single antenna",
        (1, 1),
        _KMS_CURVES,
    ),
    "fig5": _preset(
        "classical special cases through the unified shadowed family, "
        "Gaussian noise, BPSK",
        (1, 1),
        _SPECIAL_CURVES,
    ),
    "fig6": _preset(
        "eta-mu cases evaluated through the unified shadowed family's "
        "parameter mapping, Gaussian noise, BPSK",
        (1, 1),
        _UNIFIED_ETA_CURVES,
    ),
}


# --------------------------------------------------------------------------
# scenario assembly


def _parse_snr(text):
    """The grid of a ``--snr start:step:stop`` flag."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"--snr expects start:step:stop in dB, got {text!r}"
        )
    return _snr_grid("--snr", *parts)


def _snr_grid(source, start, step, stop):
    """The dB grid ``start, start + step, ...`` up to ``stop``.

    Flags, a config's ``snr_db`` section and presets all build their grid
    here; ``source`` names the input in error messages.  The bounds are
    numbers or numeric strings, never booleans.
    """
    bounds = []
    for key, value in (("start", start), ("step", step), ("stop", stop)):
        try:
            bound = float(value)
        except (TypeError, ValueError):
            bound = None
        if bound is None or isinstance(value, bool):
            raise UsageError(
                f"{source}: {key} must be a number, got {value!r}"
            )
        if not math.isfinite(bound):
            raise UsageError(
                f"{source}: {key} must be finite, got {value!r}"
            )
        bounds.append(bound)
    start, step, stop = bounds
    if step <= 0.0:
        raise UsageError(f"{source}: step must be positive, got {step}")
    if stop < start:
        raise UsageError(
            f"{source}: stop must be >= start, got start={start}, stop={stop}"
        )
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    grid = tuple(start + k * step for k in range(count))
    for snr_db in grid:
        fading_mod.db_to_power(snr_db, source)
    return grid


def _parse_values(flag, text):
    """Parse a comma-separated list of finite numbers given to ``flag``."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} values must be finite, got {text!r}")
    return values


def _build_fit(a, fit_kind):
    try:
        a = float(a)
        if fit_kind == "table":
            return noise_mod.builtin_fit(a)
        if fit_kind == "refit":
            from gfaber import nlfit  # numpy is loaded only for a refit

            return nlfit.fit_q_approx(a)
    except (NotTabulatedError, TypeError, ValueError) as exc:
        raise UsageError(f"noise.a: {exc}") from None
    raise UsageError(f"noise fit must be 'table' or 'refit', got {fit_kind!r}")


def _parse_fading(spec):
    try:
        return fading_mod.parse_fading_json(spec)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"fading: {exc}") from None


def _fading_from_flags(args):
    if args.model is None:
        raise UsageError("--model is required")
    spec = {"model": args.model}
    for key in ("eta", "mu", "kappa", "m", "q", "K"):
        value = getattr(args, "K_factor" if key == "K" else key)
        if value is not None:
            spec[key] = value
    if getattr(args, "lambda_", None) is not None:
        spec["lambda"] = args.lambda_
    if args.format is not None:
        spec["format"] = args.format
    return _parse_fading(spec)


def _build_scenario(params, nt, nr, a, fit_kind, modulation, grid):
    """The one place an :class:`~gfaber.aber.AberScenario` is built.

    Flags, ``--config`` and every preset curve come through here with
    parsed fading ``params`` and SNR ``grid``; ``modulation`` is a scheme
    string or a ``{"scheme", "order"}`` mapping.
    """
    try:
        mimo = fading_mod.MimoConfig(nt=nt, nr=nr)
    except ValueError as exc:
        raise UsageError(f"mimo: {exc}") from None
    try:
        if isinstance(modulation, str):
            mod_spec = modulation_mod.parse_modulation(modulation)
        else:
            mod_spec = modulation_mod.ModulationSpec(
                scheme=modulation["scheme"], order=modulation.get("order")
            )
    except (TypeError, KeyError, ValueError) as exc:
        raise UsageError(f"modulation: {exc}") from None
    return aber_mod.AberScenario(
        fading=params,
        mimo=mimo,
        noise=_build_fit(a, fit_kind),
        modulation=mod_spec,
        snr_grid=grid,
    )


def _scenarios_from_args(args):
    """Resolve flags/--config/--preset into labeled scenarios.

    Returns (label, scenario) pairs plus a descriptive note (presets only).
    """
    sources = sum(
        1 for flag in (args.config, args.preset, args.model) if flag
    )
    if sources == 0:
        raise UsageError("specify a scenario via --model, --config or --preset")
    if args.config and args.preset:
        raise UsageError("--config and --preset are mutually exclusive")
    if args.preset:
        if args.model:
            raise UsageError("--preset and --model are mutually exclusive")
        return _scenarios_from_preset(args.preset)
    if args.config:
        if args.model:
            raise UsageError("--config and --model are mutually exclusive")
        return _scenarios_from_config(args.config)
    params = _fading_from_flags(args)
    scenario = _build_scenario(
        params, args.nt, args.nr, args.a, args.fit, args.mod,
        _parse_snr(args.snr),
    )
    return [("aber_closed", scenario)], None


def _json_object(name, value):
    """``value`` (the config or its ``name`` section) if it is an object."""
    if not isinstance(value, dict):
        raise UsageError(
            f"{name}: expected a JSON object, got {type(value).__name__}"
        )
    return value


def _scenarios_from_config(path):
    try:
        with open(path, encoding="utf-8") as handle:
            config = _json_object("config", json.load(handle))
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    for key in ("fading", "noise", "modulation", "snr_db"):
        if key not in config:
            raise UsageError(f"config is missing the {key!r} field")
    params = _parse_fading(_json_object("fading", config["fading"]))
    mimo = _json_object("mimo", config.get("mimo", {}))
    noise_cfg = _json_object("noise", config["noise"])
    if "a" not in noise_cfg:
        raise UsageError("noise config requires the 'a' field")
    snr_cfg = _json_object("snr_db", config["snr_db"])
    try:
        bounds = [snr_cfg[key] for key in ("start", "step", "stop")]
    except KeyError as exc:
        raise UsageError(f"snr_db: missing field {exc}") from None
    grid = _snr_grid("snr_db", *bounds)
    scenario = _build_scenario(
        params, mimo.get("nt", 1), mimo.get("nr", 1), noise_cfg["a"],
        noise_cfg.get("fit", "table"), config["modulation"], grid,
    )
    return [("aber_closed", scenario)], None


def _scenarios_from_preset(name):
    if name not in PRESETS:
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[name]
    nt, nr = preset["mimo"]
    grid = _snr_grid(f"preset {name}", *preset["snr"])
    scenarios = []
    for label, fading_spec, mod_text, a in preset["curves"]:
        if fading_spec["model"] == "eta-mu-unified":
            params = fading_mod.special_case_params(
                "eta-mu", eta=fading_spec["eta"], mu=fading_spec["mu"]
            )
        else:
            params = _parse_fading(fading_spec)
        scenario = _build_scenario(params, nt, nr, a, "table", mod_text, grid)
        scenarios.append((label, scenario))
    return scenarios, preset["note"]


# --------------------------------------------------------------------------
# echo helpers


def _fading_dict(params):
    if isinstance(params, fading_mod.EtaMuParams):
        shape_key = "eta" if params.fmt == fading_mod.FORMAT1 else "lambda"
        return {
            "model": "eta-mu",
            "format": 1 if params.fmt == fading_mod.FORMAT1 else 2,
            shape_key: params.shape,
            "mu": params.mu,
        }
    return {
        "model": "kappa-mu-shadowed",
        "kappa": params.kappa,
        "mu": params.mu,
        "m": params.m,
    }


def _scenario_dict(scenario):
    return {
        "fading": _fading_dict(scenario.fading),
        "mimo": {"nt": scenario.mimo.nt, "nr": scenario.mimo.nr},
        "noise": scenario.noise.to_dict(),
        "modulation": {
            "scheme": scenario.modulation.scheme,
            "order": scenario.modulation.order,
            "label": scenario.modulation.label(),
        },
        "snr_db": list(scenario.snr_grid),
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _num(value):
    return _FMT % value if value is not None else "nan"


# --------------------------------------------------------------------------
# subcommands


def _cmd_aber(args):
    scenarios, note = _scenarios_from_args(args)
    curves = [
        (label, aber_mod.sweep(sc, aber_mod.METHOD_CLOSED))
        for label, sc in scenarios
    ]
    failures = [
        diag
        for _, curve in curves
        for diag in curve.diagnostics
        if "aber increased" not in diag
    ]
    header = "snr_db," + ",".join(label for label, _ in curves)
    grid = scenarios[0][1].snr_grid
    columns = [dict(curve.points) for _, curve in curves]
    rows = [
        ",".join([_num(snr_db)] + [_num(col.get(snr_db)) for col in columns])
        for snr_db in grid
    ]
    if args.json:
        payload = {
            "curves": [
                {
                    "label": label,
                    "scenario": _scenario_dict(sc),
                    "method": curve.method,
                    "monotone": curve.monotone,
                    "points": [
                        {"snr_db": snr_db, "aber_closed": value}
                        for snr_db, value in curve.points
                    ],
                    "diagnostics": list(curve.diagnostics),
                }
                for (label, sc), (_, curve) in zip(scenarios, curves)
            ]
        }
        if args.preset:
            payload["preset"] = args.preset
            payload["note"] = f"{note} (representative parameter choices)"
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join([header] + rows) + "\n", args.out)
    if failures:
        for diag in failures:
            sys.stderr.write(f"numerical failure: {diag}\n")
        return 3
    return 0


def _cmd_verify(args):
    scenarios, _ = _scenarios_from_args(args)
    all_approx_devs = []
    all_exact_devs = []
    lines = []
    for label, scenario in scenarios:
        closed = aber_mod.sweep(scenario, aber_mod.METHOD_CLOSED)
        approx = aber_mod.sweep(scenario, aber_mod.METHOD_ORACLE_APPROX)
        exact = aber_mod.sweep(scenario, aber_mod.METHOD_ORACLE_EXACT)
        gaps = [
            d
            for c in (closed, approx, exact)
            for d in c.diagnostics
            if "aber increased" not in d
        ]
        if gaps:
            for diag in gaps:
                sys.stderr.write(f"numerical failure: {diag}\n")
            return 3
        devs = []
        exact_devs = []
        for (snr_db, c_val), (_, a_val), (_, e_val) in zip(
            closed.points, approx.points, exact.points
        ):
            if a_val:
                devs.append(abs(c_val - a_val) / abs(a_val))
            if e_val:
                exact_devs.append(abs(c_val - e_val) / abs(e_val))
        if not (devs and exact_devs):
            sys.stderr.write(
                f"numerical failure: curve {label}: no nonzero oracle "
                "value to compare against\n"
            )
            return 3
        all_approx_devs += devs
        all_exact_devs += exact_devs
        lines.append(
            f"curve {label}: points={len(closed.points)} "
            f"max_rel_dev_vs_approx_oracle={max(devs):.3e} "
            f"median={statistics.median(devs):.3e} "
            f"max_rel_dev_vs_exact_oracle={max(exact_devs):.3e}"
        )
    overall = max(all_approx_devs)
    verdict = "PASS" if overall <= VERIFY_TOL else "FAIL"
    lines.append(
        f"overall: max_rel_dev_vs_approx_oracle={overall:.3e} "
        f"median={statistics.median(all_approx_devs):.3e} "
        f"max_rel_dev_vs_exact_oracle={max(all_exact_devs):.3e} "
        f"threshold={VERIFY_TOL:.0e} -> {verdict}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict == "PASS" else 1


def _cmd_qfit(args):
    if args.table:
        rows = []
        for a in noise_mod.TABULATED_A:
            fit = noise_mod.builtin_fit(a)
            row = fit.to_dict()
            row["max_abs_dev"] = noise_mod.max_abs_deviation(fit)
            rows.append(row)
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    if args.a is None:
        raise UsageError("qfit requires --a or --table")
    from gfaber import nlfit  # numpy is loaded only for a refit

    fit = nlfit.fit_q_approx(args.a)
    row = fit.to_dict()
    row["max_abs_dev"] = noise_mod.max_abs_deviation(fit)
    _emit(json.dumps(row, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_pdf(args):
    params = _fading_from_flags(args)
    if args.mean_power_db is not None:
        params = replace(
            params,
            mean_power=fading_mod.db_to_power(
                args.mean_power_db, "--mean-power-db"
            ),
        )
    mimo = fading_mod.MimoConfig(nt=args.nt, nr=args.nr)
    grid = _parse_values("--gamma", args.gamma)
    if any(g < 0.0 for g in grid):
        raise UsageError("--gamma values must be >= 0")
    bundle = fading_mod.compact(params, mimo)
    rows = ["gamma,pdf"]
    for g in grid:
        rows.append(f"{_num(g)},{_num(fading_mod.bundle_pdf(bundle, g))}")
    if args.check_norm:
        norm = quadrature.integrate_semi_infinite(
            lambda g: fading_mod.bundle_pdf(bundle, g) if g > 0.0 else 0.0,
            1e-9,
        )
        rows.append(f"norm,{_num(norm)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# --------------------------------------------------------------------------
# parser


def _add_scenario_flags(sub, with_noise_mod=True):
    if with_noise_mod:
        sub.add_argument("--config", help="JSON scenario config file")
        sub.add_argument(
            "--preset",
            help="named scenario family (fig1..fig6; representative "
            "parameter choices)",
        )
    sub.add_argument(
        "--model",
        help="fading model: eta-mu, kappa-mu-shadowed, or a named special "
        "case (rayleigh, hoyt, rician, rician-shadowed, nakagami-m, "
        "kappa-mu, one-sided-gaussian)",
    )
    sub.add_argument("--eta", type=float, help="eta-mu format-1 shape")
    sub.add_argument(
        "--lambda",
        dest="lambda_",
        type=float,
        help="eta-mu format-2 shape (in (-1, 1))",
    )
    sub.add_argument(
        "--format", type=int, choices=(1, 2), help="eta-mu format selector"
    )
    sub.add_argument("--mu", type=float, help="multipath cluster parameter")
    sub.add_argument("--kappa", type=float, help="dominant-to-scattered ratio")
    sub.add_argument("--m", type=float, help="shadowing severity")
    sub.add_argument("--q", type=float, help="Hoyt shape (special case)")
    sub.add_argument(
        "--K", dest="K_factor", type=float, help="Rician K factor (special case)"
    )
    sub.add_argument("--nt", type=int, default=1, help="transmit antennas")
    sub.add_argument("--nr", type=int, default=1, help="receive antennas")
    if with_noise_mod:
        sub.add_argument(
            "--mod",
            default="bpsk",
            help="modulation: bpsk, qpsk, bfsk, 16qam[-rect|-nonrect], "
            "8psk, 4pam, ...",
        )
        sub.add_argument(
            "--a", type=float, default=2.0, help="noise shape parameter"
        )
        sub.add_argument(
            "--fit",
            choices=("table", "refit"),
            default="table",
            help="4-exponential constants: built-in table or a fresh refit",
        )
        sub.add_argument(
            "--snr",
            default="0:2:30",
            help="SNR grid start:step:stop in dB (linear power 10^(dB/10))",
        )
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfaber",
        description=(
            "Average bit error rates of orthogonal-STBC MIMO links over "
            "generalized eta-mu and kappa-mu shadowed fading under "
            "generalized Gaussian noise."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser(
        "aber", help="sweep a scenario over an SNR grid (CSV/JSON)"
    )
    _add_scenario_flags(cmd)
    cmd.add_argument(
        "--json", action="store_true", help="JSON output with scenario echo"
    )
    cmd.set_defaults(handler=_cmd_aber)

    cmd = commands.add_parser(
        "verify", help="compare the closed form against both oracles"
    )
    _add_scenario_flags(cmd)
    cmd.set_defaults(handler=_cmd_verify)

    cmd = commands.add_parser(
        "qfit", help="refit the 4-exponential noise model"
    )
    cmd.add_argument("--a", type=float, help="noise shape parameter to fit")
    cmd.add_argument(
        "--table",
        action="store_true",
        help="print the built-in fit rows instead of fitting",
    )
    cmd.add_argument("--out", help="write output to this file instead of stdout")
    cmd.set_defaults(handler=_cmd_qfit)

    cmd = commands.add_parser("pdf", help="evaluate a fading density (CSV)")
    _add_scenario_flags(cmd, with_noise_mod=False)
    cmd.add_argument(
        "--gamma", required=True, help="comma-separated power values"
    )
    cmd.add_argument(
        "--mean-power-db",
        type=float,
        default=None,
        help="mean branch SNR in dB (default 0 dB)",
    )
    cmd.add_argument(
        "--check-norm",
        action="store_true",
        help="append the quadrature normalization of the density",
    )
    cmd.set_defaults(handler=_cmd_pdf)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GfaberError, OverflowError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
