import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repeaterlab
from repeaterlab import rates
from repeaterlab.cli import _linspace, main
from repeaterlab.core import paper_defaults

FAST_SIM = ["--l-km", "80", "--n", "0", "--trials", "400", "--seed", "7"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def parse_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_defaults(capsys):
    code, out, err = run_cli(capsys, "rates", "--format", "jsonl")
    assert code == 0
    assert err == ""
    rec = parse_jsonl(out)[0]
    assert rec["t_total"] == pytest.approx(4.3795, abs=1e-3)


def test_rates_n6_override(capsys):
    code, out, _ = run_cli(capsys, "rates", "--n", "6", "--format", "jsonl")
    assert code == 0
    assert parse_jsonl(out)[0]["t_total"] == pytest.approx(0.84018, abs=1e-3)


def test_rates_invalid_override_exits_2(capsys):
    code, out, err = run_cli(capsys, "rates", "--eta-d", "1.5")
    assert code == 2
    assert "eta_d" in err


def test_rates_table_format(capsys):
    code, out, _ = run_cli(capsys, "rates")
    assert code == 0
    header, row = out.strip().splitlines()
    assert "t_total" in header
    assert len(row.split()) == len(header.split())


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"n": 6}')
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--format", "jsonl")
    assert code == 0
    assert parse_jsonl(out)[0]["t_total"] == pytest.approx(0.84018, abs=1e-3)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"eta_q": 0.5}')
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2
    assert "eta_q" in err


def test_config_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "rates", "--config", "/nonexistent/x.json")
    assert code == 2


def test_config_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"n": 6}')
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--n", "4", "--format", "jsonl")
    assert code == 0
    assert parse_jsonl(out)[0]["t_total"] == pytest.approx(4.3795, abs=1e-3)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_output(capsys):
    code1, out1, err1 = run_cli(capsys, "simulate", *FAST_SIM, "--format", "jsonl")
    code2, out2, _ = run_cli(capsys, "simulate", *FAST_SIM, "--format", "jsonl")
    assert code1 == code2 == 0
    assert err1 == ""
    assert out1 == out2
    rec = parse_jsonl(out1)[0]
    assert rec["trials"] == 400
    assert rec["ratio"] > 0.9


def test_simulate_zero_trials_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--trials", "0")
    assert code == 2


def test_simulate_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--l-km", "80", "--n", "0", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--seed" in err and "-1" in err
    assert "Traceback" not in err


def test_simulate_guard_exits_3(capsys):
    # A zero-probability stage, then p_0 ~ 1e-26 (n = 0) and ~ 1e-13
    # (n = 1) over the default 1280 km and p_l ~ 1e-17 (eta_p = 1e-7): too
    # small to sample; last, (2/p_swap)^40 ~ 2^104 elementary links.
    for argv in ((*FAST_SIM, "--eta-d", "0"), ("--n", "0"), ("--n", "1"), ("--eta-p", "1e-7"),
                 ("--n", "40", "--l-km", "80000", "--trials", "1")):
        code, _, err = run_cli(capsys, "simulate", *argv)
        assert code == 3
        assert err.startswith("aborted:")
        assert "Traceback" not in err


def test_simulate_tiny_prep_probability_counts(capsys):
    # p_l ~ 8e-12 (2/p_l ~ 2^38 draws per launch) still runs, and the
    # attempt totals do not wrap: about 2/p_l prep attempts per launch.
    code, out, _ = run_cli(capsys, "simulate", "--eta-p", "1e-4", "--trials", "20", "--seed", "5",
                           "--format", "jsonl")
    assert code == 0
    rec = parse_jsonl(out)[0]
    p_l = rates.p_local(paper_defaults().with_overrides(eta_p=1e-4))
    assert rec["prep_attempts"] / rec["link_attempts"] == pytest.approx(2.0 / p_l, rel=0.05)


@pytest.mark.parametrize("argv", [
    ("rates", "--eta-d", "0"),
    ("sweep", "--param", "eta_d", "--from", "0", "--to", "0.5", "--steps", "3"),
    ("reproduce-paper", "--eta-e1", "0"),
    ("rates", "--n", "700"),  # p_swap**n underflows to 0
    ("rates", "--n", "1050", "--eta-e2", "1", "--eta-d", "1"),  # 2**n overflows a float
    ("reproduce-paper", "--l-km", "1e-320"),  # L_0 p_l underflows to 0
    ("rates", "--r-hz", "1e-322"),  # r p_l underflows to 0
    ("reproduce-paper", "--r-hz", "1e-322"),
    ("sweep", "--param", "n", "--from", "0", "--to", "12", "--r-hz", "1e-322"),
])
def test_analytic_guard_exits_3(capsys, argv):
    # validate() accepts each parameter set; the closed forms cannot be evaluated.
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("aborted:")
    assert "Traceback" not in err

def test_simulate_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("REPEATERLAB_SEED", "99")
    code, out, _ = run_cli(capsys, "simulate", "--l-km", "80", "--n", "0",
                           "--trials", "50", "--format", "jsonl")
    assert code == 0
    assert parse_jsonl(out)[0]["seed"] == 99
    # explicit flag wins
    code, out, _ = run_cli(capsys, "simulate", "--l-km", "80", "--n", "0",
                           "--trials", "50", "--seed", "3", "--format", "jsonl")
    assert parse_jsonl(out)[0]["seed"] == 3


def test_simulate_negative_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("REPEATERLAB_SEED", "-3")
    code, out, err = run_cli(capsys, "simulate", "--l-km", "80", "--n", "0", "--trials", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "REPEATERLAB_SEED" in err and "-3" in err
    assert "Traceback" not in err


def test_simulate_swap_comm_flag(capsys):
    base = ["simulate", "--l-km", "160", "--n", "1", "--trials", "200", "--seed", "4",
            "--format", "jsonl"]
    _, out_off, _ = run_cli(capsys, *base, "--swap-comm", "off")
    _, out_on, _ = run_cli(capsys, *base, "--swap-comm", "on")
    assert parse_jsonl(out_on)[0]["mean"] > parse_jsonl(out_off)[0]["mean"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_n_marks_optimum(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "n", "--from", "1", "--to", "10",
                           "--format", "jsonl")
    assert code == 0
    records = parse_jsonl(out)
    assert len(records) == 10
    marked = [rec["n"] for rec in records if rec["optimal"]]
    assert marked == [6]


def test_sweep_eta_d_monotone(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "eta_d", "--from", "0.5",
                           "--to", "0.9", "--steps", "5", "--format", "jsonl")
    assert code == 0
    records = parse_jsonl(out)
    assert len(records) == 5
    totals = [rec["t_total"] for rec in records]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_sweep_grid_matches_numpy_linspace():
    rng = np.random.default_rng(2718)
    ends = [0.0, 0.3, -2.5, 7.0, 1e-300, -1e-300, 1e300, -1e300]
    ends += list(rng.choice([-1.0, 1.0], 24) * 10.0 ** rng.uniform(-300, 300, 24))
    grids = [(a, b, steps) for a in ends for b in ends for steps in (1, 2, 3, 7, 100)]
    # A span of three subnormal units over six steps underflows to a zero step.
    grids.append((0.0, 1.5e-323, 7))
    for start, stop, steps in grids:
        expected = [float(v).hex() for v in np.linspace(start, stop, steps)]
        assert [v.hex() for v in _linspace(start, stop, steps)] == expected, (start, stop, steps)


def test_sweep_unknown_param_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--param", "bogus", "--from", "1", "--to", "2")
    assert code == 2
    assert "bogus" in err


def test_sweep_empty_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--param", "n", "--from", "5", "--to", "4")
    assert code == 2


@pytest.mark.parametrize("bounds, flag", [
    (("--param", "eta_d", "--from", "nan", "--to", "1"), "--from"),
    (("--param", "n", "--from", "0", "--to", "inf", "--steps", "2"), "--to"),
    (("--param", "n", "--from=-inf", "--to", "1"), "--from"),
    # Finite bounds whose span overflows, so linspace would yield nan.
    (("--param", "n", "--from=-1.7e308", "--to", "1.7e308", "--steps", "3"), "--to minus --from"),
], ids=["from-nan", "to-inf-steps", "from-minus-inf", "span-overflows"])
def test_sweep_non_finite_bound_exits_2(capsys, bounds, flag):
    code, out, err = run_cli(capsys, "sweep", *bounds)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be a finite number")


def test_sweep_checks_grid_ends_before_building_it():
    # eta_d = 1e10 is invalid, so the 10^10-point grid (about 80 GB as a
    # list) is never built.  The child process runs under a 1 GiB
    # address-space limit, so a regression fails there, not in this one.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(repeaterlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys\nfrom repeaterlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    res = subprocess.run([sys.executable, "-c", script, "sweep", "--param", "eta_d", "--from", "0", "--to", "1e10"],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                         preexec_fn=limit_memory, timeout=60)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: sweep value 10000000000 invalid for: eta_d")


@pytest.mark.parametrize("argv", [
    ("simulate", "--trials", "1000000000000000"),
    ("sweep", "--param", "eta_d", "--from", "0.1", "--to", "0.9", "--steps", "1000000000000000"),
    ("sweep", "--param", "L", "--from", "1", "--to", "1e15"),
    ("sweep", "--param", "n", "--from", "0", "--to", "1e300"),
    ("sweep", "--param", "eta_d", "--from", "0.1", "--to", "0.9", "--steps", "1" + "0" * 30),
    ("sweep", "--param", "eta_d", "--from", "0.1", "--to", "0.9", "--steps", "1" + "0" * 400),
])
def test_unallocatable_count_exits_3(capsys, argv):
    # 10^15 float64 values or list slots (8 PB) cannot be allocated, and
    # 10^300 integer grid points or 10^30 steps overflow a list's length
    # (10^400 steps a float as well); the request fails at once, before
    # any memory is touched.
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("aborted:")
    assert "1000000000000000" in err


# ---------------------------------------------------------------------------
# bsm-verify
# ---------------------------------------------------------------------------

def test_bsm_verify_passes(capsys):
    code, out, err = run_cli(capsys, "bsm-verify", "--format", "jsonl")
    assert code == 0
    records = parse_jsonl(out)
    assert all(rec["pass"] for rec in records)
    names = {rec["check"] for rec in records}
    assert "bsm_unitarity" in names
    assert "engine_vs_formula_rel" in names
    assert "dark_state_residual" in names


@pytest.mark.parametrize("extra", [
    (),
    ("--l-km", "1e308"),  # fiber transmission underflows to 0
    ("--l-att-km", "1e-308"),
], ids=["defaults", "l_km_1e308", "l_att_km_1e-308"])
def test_bsm_verify_minimal_grid(capsys, extra):
    code, out, _ = run_cli(capsys, "bsm-verify", "--phases", "1", *extra, "--format", "jsonl")
    assert code == 0


def test_bsm_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "bsm-verify", "--tolerance", "1e-30", "--format", "jsonl")
    assert code == 1
    records = parse_jsonl(out)
    assert any(not rec["pass"] for rec in records)


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_bsm_verify_rejects_bad_tolerance(capsys, tolerance):
    # nan would print NaN tokens (not JSON) and fail every check; inf
    # would pass every check.
    code, out, err = run_cli(capsys, "bsm-verify", "--tolerance", tolerance, "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


def test_bsm_verify_phase_grid_is_bounded(capsys):
    # Refused before the grid is built: 10^18 local pipelines.
    code, out, err = run_cli(capsys, "bsm-verify", "--phases", "1000000000")
    assert code == 3
    assert out == ""
    assert err.startswith("aborted:")
    assert "1000000000000000000" in err and "4096" in err


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def test_reproduce_paper_all_rows_pass(capsys):
    code, out, err = run_cli(capsys, "reproduce-paper", "--format", "jsonl")
    assert code == 0
    records = parse_jsonl(out)
    computed = [rec for rec in records if not rec["not_computed"]]
    assert len(computed) == 5
    for rec in computed:
        assert rec["pass"], rec
        assert rec["rel_deviation"] <= 0.02
    reference = [rec for rec in records if rec["not_computed"]]
    assert len(reference) == 1
    assert reference[0]["paper"] == 107.6
    assert reference[0]["computed"] is None


def test_reproduce_paper_jsonl_parses(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "jsonl")
    for line in out.strip().splitlines():
        json.loads(line)


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_csv_round_trip_17_digits(capsys):
    _, out_csv, _ = run_cli(capsys, "rates", "--format", "csv")
    _, out_jsonl, _ = run_cli(capsys, "rates", "--format", "jsonl")
    row = parse_csv(out_csv)[0]
    rec = parse_jsonl(out_jsonl)[0]
    for key, value in rec.items():
        assert float(row[key]) == value, key


def test_csv_header_matches_report_fields(capsys):
    _, out_csv, _ = run_cli(capsys, "rates", "--format", "csv")
    header = out_csv.splitlines()[0].split(",")
    assert header == ["eta_t", "p_l", "p_0", "p_swap", "t_l", "t_0", "t_total", "delta_f"]


def test_verbose_writes_to_stderr(capsys):
    code, _, err = run_cli(capsys, "rates", "--verbose")
    assert code == 0
    assert "parameters" in err
    # The last line names the version, the subcommand, its wall time and
    # the package modules loaded.
    manifest = err.splitlines()[-1]
    assert manifest.startswith(f"repeaterlab {repeaterlab.__version__} rates: ")
    assert " s, modules " in manifest and "repeaterlab.rates" in manifest.split()


def test_simulate_verbose_reports_per_trial_costs(capsys):
    # The manifest adds the trial count, the time per trial and the link
    # attempts and preparation draws per trial; stdout is unchanged.
    _, plain, _ = run_cli(capsys, "simulate", *FAST_SIM, "--format", "jsonl")
    code, out, err = run_cli(capsys, "simulate", *FAST_SIM, "--format", "jsonl", "--verbose")
    assert code == 0
    assert out == plain
    rec = parse_jsonl(out)[0]
    manifest = err.splitlines()[-1]
    assert manifest.startswith(f"repeaterlab {repeaterlab.__version__} simulate: ")
    fields = manifest.split(", ")
    assert fields[1] == "400 trials"
    us = fields[2].removesuffix(" us per trial")
    assert float(us) > 0.0
    links, draws = fields[3].split(" link attempts and ")
    assert links == f"{rec['link_attempts'] / 400:.1f}"
    assert draws == f"{rec['prep_attempts'] / 400:.1f} preparation draws per trial"
    assert fields[4].startswith("modules ") and "repeaterlab.sim" in fields[4].split()


# Extremes that validate() accepts, per parameter kind.
_POSITIVE_EXTREMES = (5e-324, 1e-320, 1e-300, 1.0, 1e300, 1.7e308)
_EFFICIENCY_EXTREMES = (0.0, 5e-324, 1e-300, 1e-7, 0.5, 1.0)
_EXTREMES = {
    "eta_p": _EFFICIENCY_EXTREMES,
    "eta_s": _EFFICIENCY_EXTREMES,
    "eta_e1": _EFFICIENCY_EXTREMES,
    "eta_e2": _EFFICIENCY_EXTREMES,
    "eta_d": _EFFICIENCY_EXTREMES,
    "r_hz": (*_POSITIVE_EXTREMES, 39.2e6),
    "l_km": (*_POSITIVE_EXTREMES, 1280.0),
    "l_att_km": (*_POSITIVE_EXTREMES, 22.0),
    "c_km_s": (*_POSITIVE_EXTREMES, 2.0e5),
    "n": (0, 1, 4, 12, 700, 1100, 10**6),
    "p_d": (0.0, 5e-324, 0.999999),
}
_ANALYTIC_COMMANDS = (
    ("rates",),
    ("reproduce-paper",),
    ("sweep", "--param", "n", "--from", "0", "--to", "12"),
    ("sweep", "--param", "eta_d", "--from", "0", "--to", "1", "--steps", "3"),
    ("bsm-verify", "--phases", "1"),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    command=st.sampled_from(_ANALYTIC_COMMANDS),
    values=st.fixed_dictionaries({key: st.none() | st.sampled_from(pool) for key, pool in _EXTREMES.items()}),
    fmt=st.sampled_from(("table", "csv", "jsonl")),
)
def test_analytic_commands_never_crash(command, values, fmt):
    # Every accepted parameter set either runs or exits with a documented code.
    argv = [*command, "--format", fmt]
    for key, value in values.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), repr(value)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "abc"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, unused", [
    (["rates"], ["numpy"]),
    (["sweep", "--param", "n", "--from", "1", "--to", "3"], ["numpy"]),
    (["sweep", "--param", "eta_d", "--from", "0.5", "--to", "0.9", "--steps", "5"], ["numpy"]),
    (["reproduce-paper"], ["numpy"]),
    (["simulate", "--n", "0", "--l-km", "80", "--trials", "2"], ["repeaterlab.optics", "repeaterlab.fock"]),
    (["bsm-verify", "--phases", "1"], ["repeaterlab.sim"]),
], ids=["rates", "sweep-n", "sweep-steps", "reproduce-paper", "simulate", "bsm-verify"])
def test_cli_process_loads_only_its_layer(argv, unused):
    # A subcommand imports only the layer it runs; scipy, a test
    # dependency, is never loaded.
    src = str(Path(repeaterlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        "from repeaterlab.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    res = subprocess.run([sys.executable, "-c", script, *argv, "--format", "jsonl"],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert [m for m in loaded if m.partition(".")[0] == "scipy" or m in unused] == []
