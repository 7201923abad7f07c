"""End-to-end checks of the command-line interface.

These tests drive ``gfaber.cli.main`` directly with argument lists and
assert on exit codes, CSV/JSON payloads, and the fault-injection and
diagnostic paths.  Numerical correctness of the underlying curves is
covered by the library tests; here the focus is wiring: flag parsing,
scenario resolution, output formatting, and error reporting.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from conftest import fail_gauss_2f1_near_one

from gfaber import aber, cli, fading, noise
from gfaber.errors import NonFiniteResidualError


ETA_FLAGS = ["--model", "eta-mu", "--eta", "0.5", "--mu", "1",
             "--nt", "2", "--nr", "2"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# aber: CSV sweeps


def test_aber_csv_header_and_grid(capsys):
    code, out, err = run_cli(capsys, ["aber"] + ETA_FLAGS)
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "snr_db,aber_closed"
    assert len(lines) == 1 + 16  # default grid 0:2:30
    first_cols = [float(line.split(",")[0]) for line in lines[1:]]
    assert first_cols == [float(v) for v in range(0, 31, 2)]


def test_aber_known_curve_values(capsys):
    # 2x2 BPSK over eta-mu (eta=0.5, mu=1) at a=2; the 10 dB point is the
    # frozen quadrature-checked anchor used by the library tests.
    code, out, _ = run_cli(capsys, ["aber"] + ETA_FLAGS + ["--snr", "0:5:20"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    values = [row.split(",")[1] for row in rows]
    assert values == [
        "6.41048529e-03",
        "7.33609446e-05",
        "8.61975869e-08",
        "2.32598487e-11",
        "3.28425904e-15",
    ]


def test_aber_output_is_deterministic(capsys):
    argv = ["aber"] + ETA_FLAGS + ["--snr", "0:5:20"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_aber_out_file_matches_stdout(capsys, tmp_path):
    argv = ["aber"] + ETA_FLAGS + ["--snr", "0:5:10"]
    _, expected, _ = run_cli(capsys, argv)
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8") == expected


def test_aber_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, ["aber"] + ETA_FLAGS + ["--snr", "0:10:20", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"curves"}
    (curve,) = payload["curves"]
    assert curve["label"] == "aber_closed"
    assert curve["method"] == "closed-form"
    assert curve["monotone"] is True
    assert curve["diagnostics"] == []
    assert [pt["snr_db"] for pt in curve["points"]] == [0.0, 10.0, 20.0]
    assert all(pt["aber_closed"] > 0.0 for pt in curve["points"])
    echo = curve["scenario"]
    assert echo["fading"] == {"model": "eta-mu", "format": 1,
                              "eta": 0.5, "mu": 1.0}
    assert echo["mimo"] == {"nt": 2, "nr": 2}
    assert echo["noise"]["a"] == 2.0
    assert echo["noise"]["source"] == "builtin-table"
    assert len(echo["noise"]["p"]) == len(echo["noise"]["q"]) == 4
    assert echo["modulation"]["label"] == "bpsk"
    assert echo["snr_db"] == [0.0, 10.0, 20.0]


def test_aber_preset_multi_curve(capsys):
    code, out, _ = run_cli(capsys, ["aber", "--preset", "fig1"])
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "snr_db"
    assert len(header) >= 4  # several labeled curves
    assert len(lines) == 1 + 16
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_aber_preset_json_carries_note(capsys):
    code, out, _ = run_cli(capsys, ["aber", "--preset", "fig2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["preset"] == "fig2"
    assert "representative parameter choices" in payload["note"]
    assert len(payload["curves"]) >= 2


def test_aber_reports_unresolvable_points(capsys, monkeypatch):
    # A kernel failure at 0 dB only: the CLI must keep the resolvable
    # points, emit nan for the gap, and exit 3.
    fail_gauss_2f1_near_one(monkeypatch)
    code, out, err = run_cli(
        capsys,
        ["aber", "--model", "eta-mu", "--eta", "1e-5", "--mu", "1",
         "--snr", "0:30:30"],
    )
    assert code == 3
    assert "numerical failure:" in err
    assert "snr_db=0" in err
    rows = out.strip().split("\n")[1:]
    assert rows[0].split(",")[1] == "nan"
    assert float(rows[1].split(",")[1]) > 0.0


def test_aber_overflow_is_a_numerical_failure(capsys, monkeypatch):
    # A bare OverflowError from a kernel escapes the sweep; main reports
    # it as a numerical failure, not as a traceback.
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(aber, "aber_closed", overflow)
    code, out, err = run_cli(capsys, ["aber"] + ETA_FLAGS)
    assert code == 3
    assert out == ""
    assert err == "numerical failure: math range error\n"


# --------------------------------------------------------------------------
# aber: flag validation


def test_missing_scenario_source(capsys):
    code, _, err = run_cli(capsys, ["aber"])
    assert code == 2
    assert "--model" in err


def test_malformed_snr(capsys):
    code, _, err = run_cli(capsys, ["aber"] + ETA_FLAGS + ["--snr", "0..30"])
    assert code == 2
    assert "error:" in err


def test_non_finite_snr_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, ["aber"] + ETA_FLAGS + ["--snr", "nan:1:5"])
    assert code == 2
    assert "--snr" in err


def test_non_finite_fading_flags_are_usage_errors(capsys):
    cases = (
        (["--model", "kappa-mu-shadowed", "--kappa", "1", "--mu", "1",
          "--m", "inf"], "M_LARGE"),
        (["--model", "kappa-mu-shadowed", "--kappa", "nan", "--mu", "1",
          "--m", "1"], "kappa must be finite"),
        (["--model", "eta-mu", "--eta", "inf", "--mu", "1"],
         "eta must be finite"),
    )
    for flags, message in cases:
        code, out, err = run_cli(capsys, ["aber"] + flags)
        assert code == 2
        assert out == ""
        assert message in err


def test_unknown_preset(capsys):
    code, _, err = run_cli(capsys, ["aber", "--preset", "fig99"])
    assert code == 2
    assert "unknown preset" in err


def test_preset_conflicts_with_model(capsys):
    code, _, err = run_cli(
        capsys, ["aber", "--preset", "fig1", "--model", "eta-mu"]
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_invalid_modulation(capsys):
    code, _, err = run_cli(capsys, ["aber"] + ETA_FLAGS + ["--mod", "3psk"])
    assert code == 2


def test_untabulated_a_requires_refit(capsys):
    code, _, err = run_cli(capsys, ["aber"] + ETA_FLAGS + ["--a", "1.2"])
    assert code == 2
    assert "noise.a" in err
    code, out, _ = run_cli(
        capsys,
        ["aber"] + ETA_FLAGS + ["--a", "1.2", "--fit", "refit",
                                "--snr", "0:10:10"],
    )
    assert code == 0
    assert out.startswith("snr_db,aber_closed")


# --------------------------------------------------------------------------
# aber: config files


def test_config_matches_equivalent_flags(capsys, tmp_path):
    config = {
        "fading": {"model": "eta-mu", "eta": 0.5, "mu": 1.0},
        "mimo": {"nt": 2, "nr": 2},
        "noise": {"a": 2.0},
        "modulation": "bpsk",
        "snr_db": {"start": 0, "step": 5, "stop": 20},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    _, from_flags, _ = run_cli(
        capsys, ["aber"] + ETA_FLAGS + ["--snr", "0:5:20"]
    )
    code, from_config, _ = run_cli(capsys, ["aber", "--config", str(path)])
    assert code == 0
    assert from_config == from_flags


def test_config_missing_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fading": {"model": "rayleigh"}}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, ["aber", "--config", str(path)])
    assert code == 2
    assert "missing" in err


def test_config_infinite_snr_exits_two(capsys, tmp_path):
    config = {
        "fading": {"model": "eta-mu", "eta": 0.5, "mu": 1.0},
        "noise": {"a": 2.0},
        "modulation": "bpsk",
        "snr_db": {"start": 0, "step": 5, "stop": math.inf},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert "Infinity" in path.read_text(encoding="utf-8")
    code, _, err = run_cli(capsys, ["aber", "--config", str(path)])
    assert code == 2
    assert "finite" in err


def test_config_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["aber", "--config", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_config_conflicts_with_model(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{}", encoding="utf-8")
    code, _, err = run_cli(
        capsys, ["aber", "--config", str(path), "--model", "eta-mu"]
    )
    assert code == 2
    assert "mutually exclusive" in err


_GOOD_CONFIG = {
    "fading": {"model": "eta-mu", "eta": 0.5, "mu": 1.0},
    "noise": {"a": 2.0},
    "modulation": "bpsk",
    "snr_db": {"start": 0, "step": 5, "stop": 20},
}


@pytest.mark.parametrize(
    "config, section",
    [
        ("fading noise modulation snr_db", "config"),
        (dict(_GOOD_CONFIG, noise=["a"]), "noise"),
        (dict(_GOOD_CONFIG, noise={"a": None}), "noise.a"),
        (dict(_GOOD_CONFIG, mimo=[2, 2]), "mimo"),
        (dict(_GOOD_CONFIG, mimo={"nt": 2.5}), "mimo"),
        (dict(_GOOD_CONFIG, fading={"model": "eta-mu", "eta": None,
                                    "mu": 1.0}), "fading"),
        (dict(_GOOD_CONFIG, snr_db={"start": "a", "step": 5, "stop": 20}),
         "snr_db"),
        (dict(_GOOD_CONFIG, snr_db={"start": True, "step": 5, "stop": 20}),
         "snr_db"),
    ],
    ids=["top-level-string", "noise-list", "noise-a-null", "mimo-list",
         "mimo-fractional-nt", "fading-eta-null", "snr-start-string",
         "snr-start-bool"],
)
def test_config_section_of_wrong_type_exits_two(capsys, tmp_path, config,
                                                section):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["aber", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {section}: ")


# --------------------------------------------------------------------------
# verify


def test_verify_passes_clean_scenario(capsys):
    code, out, err = run_cli(
        capsys, ["verify"] + ETA_FLAGS + ["--snr", "0:10:20"]
    )
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0].startswith("curve aber_closed: points=3 ")
    assert lines[-1].startswith("overall: ")
    assert lines[-1].endswith("-> PASS")


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # Corrupt the closed form only; the oracles must expose it.
    closed = aber.aber_closed
    monkeypatch.setattr(
        aber, "aber_closed", lambda *args, **kw: 1.1 * closed(*args, **kw)
    )
    code, out, _ = run_cli(
        capsys, ["verify"] + ETA_FLAGS + ["--snr", "0:10:20"]
    )
    assert code == 1
    assert out.strip().endswith("-> FAIL")
    # A 10% scale of the closed form must surface as a ~10% deviation.
    overall = out.strip().split("\n")[-1]
    dev = float(overall.split("max_rel_dev_vs_approx_oracle=")[1].split()[0])
    assert 0.05 < dev < 0.2


def test_verify_rejects_removed_fault_injection_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["verify"] + ETA_FLAGS + ["--p-scale", "1.1"]
    )
    assert code == 2
    assert out == ""


def test_verify_curve_without_nonzero_oracle_value_exits_three(capsys):
    # Every value underflows to 0, so no relative deviation exists.
    code, out, err = run_cli(
        capsys,
        ["verify", "--model", "eta-mu", "--eta", "0.5", "--mu", "4",
         "--nt", "4", "--nr", "4", "--snr", "200:10:220"],
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: curve aber_closed: ")


def test_verify_gap_exits_three(capsys, monkeypatch):
    fail_gauss_2f1_near_one(monkeypatch)
    code, _, err = run_cli(
        capsys,
        ["verify", "--model", "eta-mu", "--eta", "1e-5", "--mu", "1",
         "--snr", "0:30:30"],
    )
    assert code == 3
    assert "numerical failure:" in err


# --------------------------------------------------------------------------
# qfit


def test_qfit_table_lists_builtin_rows(capsys):
    code, out, _ = run_cli(capsys, ["qfit", "--table"])
    assert code == 0
    rows = json.loads(out)
    assert [row["a"] for row in rows] == sorted(noise.TABULATED_A)
    for row in rows:
        fit = noise.builtin_fit(row["a"])
        assert row["p"] == list(fit.p)
        assert row["q"] == list(fit.q)
        assert row["source"] == "builtin-table"
        assert row["max_abs_dev"] >= 0.0


def test_qfit_refit_reports_deviation(capsys):
    code, out, _ = run_cli(capsys, ["qfit", "--a", "2"])
    assert code == 0
    row = json.loads(out)
    assert row["a"] == 2.0
    assert row["source"] == "refit"
    assert len(row["p"]) == len(row["q"]) == 4
    assert 0.0 < row["max_abs_dev"] < 1e-4


def test_qfit_without_a_converged_restart_exits_three(capsys, monkeypatch):
    from gfaber import nlfit

    def diverge(residual, x0):
        raise NonFiniteResidualError(x0)

    monkeypatch.setattr(nlfit, "levenberg_marquardt", diverge)
    code, out, err = run_cli(capsys, ["qfit", "--a", "1.7"])
    assert code == 3
    assert out == ""
    assert err == (
        "numerical failure: no restart converged while refitting a=1.7\n"
    )


def test_qfit_requires_a_or_table(capsys):
    code, _, err = run_cli(capsys, ["qfit"])
    assert code == 2
    assert "--a or --table" in err


def test_qfit_rejects_out_of_range_shape(capsys):
    code, _, err = run_cli(capsys, ["qfit", "--a", "0.1"])
    assert code == 2


# --------------------------------------------------------------------------
# pdf


def test_pdf_exponential_point(capsys):
    # eta=1, mu=0.5, one branch at unit mean power is exponential, so the
    # density at gamma=1 is exp(-1).
    code, out, _ = run_cli(
        capsys,
        ["pdf", "--model", "eta-mu", "--eta", "1", "--mu", "0.5",
         "--gamma", "1.0"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,pdf"
    assert lines[1] == "1.00000000e+00,%.8e" % math.exp(-1.0)


def test_pdf_norm_check(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pdf", "--model", "kappa-mu-shadowed", "--kappa", "1.5",
         "--mu", "1.0", "--m", "2.0", "--gamma", "0.5,1.0",
         "--check-norm"],
    )
    assert code == 0
    last = out.strip().split("\n")[-1]
    key, value = last.split(",")
    assert key == "norm"
    assert math.isclose(float(value), 1.0, rel_tol=1e-6)


def test_pdf_check_norm_builds_the_density_once(capsys, monkeypatch):
    """The printed values and the norm's quadrature nodes all read one
    coefficient bundle."""
    real = fading.compact_eta_mu
    calls = []

    def compact_eta_mu(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fading, "compact_eta_mu", compact_eta_mu)
    code, out, _ = run_cli(
        capsys,
        ["pdf", "--model", "eta-mu", "--eta", "0.5", "--mu", "1",
         "--gamma", "0.5,1.0,2.0", "--check-norm"],
    )
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("norm,")
    assert len(calls) == 1


def test_pdf_zero_gamma_boundary(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pdf", "--model", "kappa-mu-shadowed", "--kappa", "0", "--mu", "2",
         "--m", "1", "--gamma", "0.0"],
    )
    assert code == 0
    assert out.strip().split("\n")[1] == "0.00000000e+00,0.00000000e+00"


def test_db_input_beyond_double_range_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(
        _GOOD_CONFIG, fading={"model": "rayleigh", "mean_power_db": 4000}
    )), encoding="utf-8")
    cases = (
        (["pdf", "--model", "rayleigh", "--gamma", "1",
          "--mean-power-db", "4000"], "--mean-power-db"),
        (["aber"] + ETA_FLAGS + ["--snr", "3990:10:4000"], "--snr"),
        (["aber", "--config", str(path)], "mean_power_db"),
    )
    for argv, name in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert name in err and "positive finite" in err, err


def test_pdf_mean_power_db_shift(capsys):
    base = ["pdf", "--model", "eta-mu", "--eta", "1", "--mu", "0.5"]
    _, ref, _ = run_cli(capsys, base + ["--gamma", "2.0"])
    code, shifted, _ = run_cli(
        capsys, base + ["--gamma", "2.0", "--mean-power-db", "3.0103"]
    )
    assert code == 0
    # Doubling the mean power of an exponential halves the density scale:
    # f(g; 2) = 0.5 * exp(-g/2).
    value = float(shifted.strip().split("\n")[1].split(",")[1])
    assert math.isclose(value, 0.5 * math.exp(-1.0), rel_tol=1e-4)
    assert shifted != ref


def test_pdf_takes_no_config_or_preset(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_GOOD_CONFIG), encoding="utf-8")
    for source in (["--config", str(path)], ["--preset", "fig1"]):
        code, out, err = run_cli(capsys, ["pdf", "--gamma", "1"] + source)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: " + source[0] in err
    code, _, err = run_cli(capsys, ["pdf", "--gamma", "1"])
    assert code == 2
    assert err == "error: --model is required\n"


def test_pdf_rejects_negative_gamma(capsys):
    for gamma, message in (("-1.0", ">= 0"), ("1,nan", "--gamma"),
                           ("inf", "--gamma")):
        code, out, err = run_cli(
            capsys,
            ["pdf", "--model", "eta-mu", "--eta", "1", "--mu", "0.5",
             "--gamma", gamma],
        )
        assert code == 2
        assert out == ""
        assert message in err


# --------------------------------------------------------------------------
# imports


# What ``qfit --a 1.7`` printed while the CLI still imported numpy
# eagerly.  The last digits follow the LAPACK build, hence the tolerance.
QFIT_1_7 = {
    "a": 1.7,
    "max_abs_dev": 0.00010154178540744407,
    "p": [0.12903353059367295, 0.16632294668353634, 0.09827612757625445,
          0.08490236618958684],
    "q": [0.4497370463700631, 1.0350834180226045, 3.568508577372825,
          26.367050108572354],
    "source": "refit",
}


def test_cli_import_loads_no_thread_pool_or_kernel_twin():
    """A fresh interpreter loads no thread pool, no kernel twin, and
    numpy only for the Levenberg-Marquardt refit."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    # Runs ``gfaber.cli.main(argv)`` (just the imports when argv is
    # empty), then reports the watched modules it loaded on stderr.
    probe = (
        "import json, sys, gfaber, gfaber.cli; "
        "argv = json.loads(sys.argv[1]); "
        "code = gfaber.cli.main(argv) if argv else 0; "
        "sys.stderr.write(repr(sorted(m for m in sys.modules "
        "if m in ('numpy', 'concurrent.futures') "
        "or m.startswith('gfaber._kernels')))); "
        "sys.exit(code)"
    )
    cases = (
        ([], []),
        (["aber", "--preset", "fig1"], []),
        (["qfit", "--table"], []),
        (["pdf", "--model", "eta-mu", "--eta", "0.5", "--mu", "1",
          "--gamma", "0.5,1", "--check-norm"], []),
        (["verify"] + ETA_FLAGS + ["--snr", "0:10:10"], []),
        (["qfit", "--a", "1.7"], ["numpy"]),
    )
    for argv, loaded in cases:
        out = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argv)], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stderr == repr(loaded), argv
    assert json.loads(out.stdout) == pytest.approx(QFIT_1_7, rel=1e-12)
