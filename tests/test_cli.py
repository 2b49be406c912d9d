"""The verification CLI: exit codes, deterministic reports, table output."""

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import daverify

from daverify import checks, cli, norms
from daverify.cli import ConfigError, RunConfig, build_parser, main, run
from daverify.reports import load_report

VERDICT_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "verdict_checks.json"


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DAVERIFY_OUT", raising=False)
    return tmp_path


def test_verify_norms_passes(workdir):
    code = run(RunConfig(command="verify-norms", params={"maxdeg": 5}))
    assert code == 0
    rep = load_report(workdir / "verify-norms-report.json")
    assert rep["pass"] is True
    assert rep["schema_version"] == "1.0.0"
    assert all(row["pass"] for row in rep["results"])


def test_reports_byte_identical_across_runs(workdir):
    params = {"dim": 4, "count": 5, "samples": 2000}
    run(RunConfig(command="moments", output="a.json", params=params))
    first = (workdir / "a.json").read_bytes()
    run(RunConfig(command="moments", output="b.json", params=params))
    assert (workdir / "b.json").read_bytes() == first


def test_csv_table_written(workdir):
    code = run(RunConfig(command="kernel-table", fmt="csv", params={"dim": 2, "n": 20}))
    assert code == 0
    csv_path = workdir / "kernel-table-report.kernel.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,a_exact,a_float,a_times_power"
    assert len(lines) == 22
    assert lines[2].startswith("1,1/2,")


def test_csv_rejected_where_meaningless():
    with pytest.raises(ConfigError):
        run(RunConfig(command="peak-check", fmt="csv"))


def test_output_dir_env(workdir, monkeypatch):
    out = workdir / "nested"
    monkeypatch.setenv("DAVERIFY_OUT", str(out))
    run(RunConfig(command="verify-norms", params={"maxdeg": 3}))
    assert (out / "verify-norms-report.json").exists()


def test_invalid_config_exit_2(workdir):
    assert main(["cantor-energy", "--levels", "99"]) == 2
    assert main(["moments", "--dim", "3"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["kernel-table", "--n", "-4"]) == 2
    # past the longest Fourier table the D2 moments can read
    assert main(["moments", "--dim", "2", "--max-exp", "2000000", "--samples", "1000"]) == 2
    assert main(["moments", "--dim", "2", "--alpha", "2000000,2000000"]) == 2
    # inf and nan have no JSON form, so they must not reach the report
    assert main(["henkin-check", "--dim", "2", "--eps", "inf"]) == 2
    assert main(["henkin-check", "--dim", "2", "--tol", "nan"]) == 2
    assert main(["peak-check", "--delta", "inf"]) == 2
    # no dimension at all would leave the report without an oracle row
    assert main(["verify-norms", "--dims", ""]) == 2


def _bad_values(param):
    # nan and inf have no JSON form, and -1 lies below every range
    return ("nan", "inf", "-1") if "float" in str(param.annotation) else ("-1",)


def test_every_option_refuses_bad_values(workdir, capsys):
    # each option alone, and with each dim where the command takes one, so
    # that the D2-only options reach the library calls that refuse them
    for name, check in checks.COMMANDS.items():
        params = inspect.signature(check).parameters
        prefixes = [[]] + [["--dim", str(d)] for d in norms.SUPPORTED_DIMS if "dim" in params]
        for param in params.values():
            for value in _bad_values(param):
                for prefix in prefixes if param.name != "dim" else [[]]:
                    argv = [name, *prefix, "--" + param.name.replace("_", "-"), value]
                    assert main(argv) == 2, argv
                    out, err = capsys.readouterr()
                    assert "error" in err and "Traceback" not in err, argv
                    assert out == "" and not list(workdir.iterdir()), argv


def test_negative_seed_and_tiny_eps_exit_2(workdir, capsys):
    # numpy refuses a negative seed, and below eps = 1e-300 the recursion
    # depth passes 646, where float(3 ** j) overflows. No stage of `all` may
    # run before its seed is refused, so nothing reaches stdout.
    for argv, message in ((["all", "--seed", "-1"], "seed must be >= 0"),
                          *(([name, "--seed", "-3"], "seed must be >= 0")
                            for name in ("verify-isometry", "moments", "witness",
                                         "peak-check")),
                          (["cantor-fourier", "--eps", "1e-320"], "eps must be"),
                          (["henkin-check", "--dim", "2", "--eps", "1e-310"], "eps must be"),
                          (["witness", "--dim", "2", "--eps", "1e-310"], "eps must be")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err
        assert out == ""


def test_json_run_builds_no_csv_rows(workdir, monkeypatch):
    def refuse(self):
        raise AssertionError("csv_rows called")

    monkeypatch.setattr(daverify.KernelSequence, "csv_rows", refuse)
    assert main(["kernel-table", "--dim", "4", "--n", "50"]) == 0
    with pytest.raises(AssertionError, match="csv_rows called"):
        main(["kernel-table", "--dim", "4", "--n", "50", "--format", "csv"])


def test_seed_only_where_a_check_draws(workdir):
    assert main(["kernel-table", "--seed", "3"]) == 2
    with pytest.raises(ConfigError):
        run(RunConfig(command="kernel-table", params={"seed": 3}))
    parser = build_parser()
    for name, check in checks.COMMANDS.items():
        argv = [name, "--seed", "3"]
        if "seed" in inspect.signature(check).parameters:
            assert parser.parse_args(argv).seed == 3
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


def test_placement_refused_on_every_command(workdir):
    # the IFS oracle has one atom placement, the cell barycenters
    for name in (*checks.COMMANDS, "all"):
        assert main([name, "--placement", "left"]) == 2
    assert not list(workdir.iterdir())


def test_moments_single_alpha_rational(workdir):
    code = main(["moments", "--dim", "4", "--alpha", "1,1,1,1",
                 "--samples", "2000", "--output", "m.json"])
    assert code == 0
    rep = load_report(workdir / "m.json")
    row = rep["results"][0]
    assert row["closed_form_exact"] == "1/16"
    assert row["pass"] is True


def test_moments_closed_form_past_the_int_str_limit(workdir):
    # the moment is 1/16^3600, whose 4,335 digits are more than str(int)
    # writes by default
    code = main(["moments", "--dim", "4", "--alpha", "3600,3600,3600,3600",
                 "--samples", "1000", "--output", "m.json"])
    assert code == 0
    row = load_report(workdir / "m.json")["results"][0]
    num, den = row["closed_form_exact"].split("/")
    assert num == "1" and len(den) == 4335 and den.endswith("6")


def test_henkin_check_d4(workdir):
    assert main(["henkin-check", "--dim", "4", "--maxdeg", "12"]) == 0
    rep = load_report(workdir / "henkin-check-report.json")
    assert rep["results"][0]["checked"] == 1820


def test_d2_only_options_refused_with_dim_4(workdir, capsys):
    # the D4 branches never read these, so accepting them would ignore them
    for argv in (["henkin-check", "--eps", "1e-9"],
                 ["henkin-check", "--dim", "4", "--level", "12"],
                 ["henkin-check", "--dim", "4", "--tol", "1e-6"],
                 ["witness", "--dim", "4", "--eps", "1e-9"],
                 ["witness", "--level", "12"]):
        assert main(argv) == 2
        assert "only dim 2 takes" in capsys.readouterr().err
    assert not (workdir / "henkin-check-report.json").exists()
    assert not (workdir / "witness-report.json").exists()


def test_options_that_nothing_reads_exit_2(workdir, capsys):
    # no check takes trials, compression draws nothing, and the D2 witness
    # draws nothing: each option would be accepted and ignored
    for argv, message in ((["witness", "--trials", "5"], "unrecognized arguments"),
                          (["compression", "--seed", "1"], "unrecognized arguments"),
                          (["witness", "--dim", "2", "--seed", "1"], "only dim 4 takes seed")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not list(workdir.iterdir())
    assert main(["witness", "--dim", "4", "--n", "4", "--seed", "1"]) == 0
    assert load_report(workdir / "witness-report.json")["config"]["seed"] == 1


def test_moments_sample_limit_exits_2(workdir, capsys):
    # one sample column of 10^12 points would take 16 TB
    limit = daverify.henkin.MAX_MC_SAMPLES
    for argv in (["moments", "--samples", "1000000000000"],
                 ["moments", "--dim", "2", "--samples", str(limit + 1)],
                 ["moments", "--alpha", "1,1,1,1", "--samples", str(limit + 1)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"samples must be in [1000, {limit}]" in err and "Traceback" not in err
    assert not list(workdir.iterdir())


def test_moments_count_limit_exits_2(workdir, capsys):
    # a batch loops over its count in Python, so a huge count never ended
    limit = daverify.henkin.MAX_MC_COUNT
    for count in (limit + 1, 10 ** 12):
        assert main(["moments", "--count", str(count), "--samples", "1000"]) == 2
        err = capsys.readouterr().err
        assert f"count must be in [1, {limit}]" in err and "Traceback" not in err
    assert not list(workdir.iterdir())


def test_moments_memory_budget_exits_2(workdir, capsys):
    # a block holds every column power its multi-indices read: 3996 of them here
    argv = ["moments", "--count", "1000", "--max-exp", "1000", "--samples", "1000000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "250 MB budget" in err and "Traceback" not in err
    assert not list(workdir.iterdir())


def test_verify_isometry_limits_exit_2(workdir, capsys):
    # a huge count or maxdeg ran without end
    for argv, message in (
            (["--count", "1001"], "count must be in [1, 1000]"),
            (["--count", "100000000"], "count must be in [1, 1000]"),
            (["--maxdeg", "401"], "maxdeg must be in [0, 400]"),
            (["--maxdeg", str(10 ** 12)], "maxdeg must be in [0, 400]")):
        assert main(["verify-isometry", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not list(workdir.iterdir())


def test_peak_check_sample_limit_exits_2(workdir, capsys):
    # peak-check streams its points, so a huge count would run for hours
    limit = daverify.henkin.MAX_PEAK_SAMPLES
    for samples in (limit + 1, 10 ** 12):
        assert main(["peak-check", "--samples", str(samples)]) == 2
        err = capsys.readouterr().err
        assert f"samples must be in [1, {limit}]" in err and "Traceback" not in err
    assert not list(workdir.iterdir())


def test_batch_only_options_refused_with_alpha(workdir, capsys):
    # one alpha is one moment: count and max-exp would be echoed and ignored
    for argv, given in ((["--count", "7", "--max-exp", "3"], "count, max_exp"),
                        (["--max-exp", "3"], "max_exp"),
                        (["--count", "1"], "count")):
        assert main(["moments", "--alpha", "1,1,1,1", "--samples", "1000", *argv]) == 2
        assert f"only a batch without alpha takes {given}" in capsys.readouterr().err
    assert not (workdir / "moments-report.json").exists()
    assert main(["moments", "--alpha", "1,1,1,1", "--samples", "1000"]) == 0
    config = load_report(workdir / "moments-report.json")["config"]
    assert config["count"] == 1 and "max_exp" not in config
    assert main(["moments", "--dim", "2", "--samples", "1000"]) == 0
    config = load_report(workdir / "moments-report.json")["config"]
    assert (config["count"], config["max_exp"]) == (100, 6)


def test_d2_only_options_default_on_dim_2(workdir):
    assert main(["henkin-check", "--dim", "2", "--maxdeg", "8"]) == 0
    config = load_report(workdir / "henkin-check-report.json")["config"]
    assert (config["eps"], config["level"], config["tol"]) == (1e-12, 14, 1e-10)
    assert main(["witness", "--dim", "2", "--n", "8"]) == 0
    config = load_report(workdir / "witness-report.json")["config"]
    assert (config["eps"], config["level"]) == (1e-12, 14)


def test_henkin_check_d2_small(workdir):
    assert main(["henkin-check", "--dim", "2", "--maxdeg", "24"]) == 0
    rep = load_report(workdir / "henkin-check-report.json")
    row = rep["results"][0]
    assert row["max_dev"] < 1e-10


def test_cantor_fourier_records_sweep(workdir):
    code = main(["cantor-fourier", "--max-n", "32", "--sweep-pow", "11",
                 "--level", "12"])
    assert code == 0
    rep = load_report(workdir / "cantor-fourier-report.json")
    sweep_row = [r for r in rep["results"]
                 if r["check"] == "cantor/weighted-sum-nondecreasing"][0]
    assert sweep_row["pass"] is True
    assert "2^10" in sweep_row["partial_sums"]
    assert "per_doubling_increase" in sweep_row
    # 2^10 -> 2^11 grows 1.837%; a sweep of one partial sum has no doubling
    assert sweep_row["last_power_at_or_above_one_percent"] == 11
    assert main(["cantor-fourier", "--max-n", "32", "--sweep-pow", "10",
                 "--level", "12"]) == 0
    rep = load_report(workdir / "cantor-fourier-report.json")
    assert rep["results"][-1]["last_power_at_or_above_one_percent"] is None


def test_cantor_fourier_below_ifs_rounding_passes(workdir):
    # the IFS table's symmetry defect is float rounding, about 5.6e-15; it
    # is judged against that table's own tolerance, not against 2 eps
    assert main(["cantor-fourier", "--eps", "1e-17"]) == 0
    rep = load_report(workdir / "cantor-fourier-report.json")
    row = [r for r in rep["results"] if r["check"] == "cantor/conjugate-symmetry"][0]
    assert row["pass"] is True and set(row) == {"check", "pass", "defect"}
    assert 2e-17 < row["defect"] < 1e-13


def test_deep_ifs_levels_pass_at_small_max_n(workdir):
    # there the IFS table's symmetry defect, about 5.5e-15, is float
    # rounding, above twice the midpoint term alone (1.3e-15 at level 16);
    # the table's tolerance counts that rounding
    for max_n, level in [(1, level) for level in range(15, 21)] + [(120, 20)]:
        assert main(["cantor-fourier", "--max-n", str(max_n), "--level", str(level),
                     "--sweep-pow", "10"]) == 0


def test_ifs_level_above_cap_exit_2(workdir):
    for argv in (["cantor-fourier", "--level", "21"],
                 ["henkin-check", "--dim", "2", "--level", "21"],
                 ["witness", "--dim", "2", "--level", "21"]):
        assert main(argv) == 2


def test_peak_check_without_kept_samples_writes_valid_json(workdir):
    assert main(["peak-check", "--samples", "1", "--delta", "100"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (workdir / "peak-check-report.json").read_text()
    rep = json.loads(text, parse_constant=reject)
    row = [r for r in rep["results"] if r["check"] == "peak/strictly-inside-off-support"][0]
    assert row["kept"] == 0 and row["min_margin"] is None
    assert row["min_margin_reason"] == "no sample outside delta"


def test_python_m_daverify_help():
    src = str(Path(daverify.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "daverify", "--help"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert "peak-check" in proc.stdout


def test_moments_help_shows_the_library_ranges(capsys):
    assert main(["moments", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    henkin = daverify.henkin
    assert f"--samples SAMPLES default 100000; range [{henkin.MIN_MC_SAMPLES}, " \
        f"{henkin.MAX_MC_SAMPLES}]" in out
    assert f"--count COUNT range [1, {henkin.MAX_MC_COUNT}]" in out
    assert f"--max-exp MAX_EXP range [0, {daverify.cantor.MAX_TABLE_N}]" in out


def test_compression_d2(workdir):
    assert main(["compression", "--dim", "2", "--sections", "1,2"]) == 0
    rep = load_report(workdir / "compression-report.json")
    row = [r for r in rep["results"]
           if r["check"] == "compression/exceeds-multiplier-floor"][0]
    assert row["pass"] is True


def test_witness_d4_includes_serialization(workdir):
    assert main(["witness", "--dim", "4", "--n", "4"]) == 0
    rep = load_report(workdir / "witness-report.json")
    ser = [r for r in rep["results"] if r["check"] == "witness/serialized"][0]
    assert ser["witness"]["diag_coeffs_exact"][1] == "3/2"


def test_parser_defaults():
    # the parser leaves unset options at None; the check function holds the defaults
    args = build_parser().parse_args(["cantor-fourier"])
    assert args.max_n is None and args.level is None and args.sweep_pow is None
    params = inspect.signature(checks.cantor_fourier).parameters
    assert params["max_n"].default == 256 and params["level"].default == 14
    assert params["sweep_pow"].default == 17
    args2 = build_parser().parse_args(["all", "--seed", "7"])
    assert args2.seed == 7


def test_config_from_parser_round_trip(workdir):
    assert main(["verify-isometry", "--count", "5", "--maxdeg", "6",
                 "--output", "iso.json"]) == 0
    rep = load_report(workdir / "iso.json")
    assert rep["config"]["count"] == 5


def _refused_before_any_stage(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    assert out == ""  # no stage line and no summary: nothing ran


def test_output_naming_a_directory_exit_2(workdir, capsys):
    (workdir / "taken").mkdir()
    for argv in (["kernel-table", "--dim", "2", "--n", "5"], ["all"]):
        _refused_before_any_stage(argv + ["--output", "taken"], "is a directory", capsys)
    assert not any((workdir / "taken").iterdir())


def test_output_below_a_regular_file_exit_2(workdir, capsys):
    (workdir / "plain").write_text("")
    for output in ("plain/report.json", "plain/sub/report.json"):
        for argv in (["kernel-table", "--dim", "2", "--n", "5"], ["all"]):
            _refused_before_any_stage(argv + ["--output", output], "not a directory", capsys)
    assert (workdir / "plain").read_text() == ""


def _deny_writes(monkeypatch, denied):
    """os.access as cli sees it, answering False to a write test on the path
    denied. Mode bits cannot stand in: root writes whatever they say."""
    real = os.access

    def access(path, mode, **kwargs):
        if mode & os.W_OK and Path(path).resolve() == denied.resolve():
            return False
        return real(path, mode, **kwargs)

    monkeypatch.setattr(cli.os, "access", access)


def test_unwritable_output_directory_exit_2(workdir, monkeypatch, capsys):
    # the report write failed with a PermissionError after every stage ran
    (workdir / "locked").mkdir()
    for denied, output in ((workdir, "report.json"), (workdir, "sub/report.json"),
                           (workdir / "locked", "locked/report.json")):
        with monkeypatch.context() as m:
            _deny_writes(m, denied)
            for argv in (["kernel-table", "--dim", "2", "--n", "5"], ["all"]):
                _refused_before_any_stage(argv + ["--output", output], "which is not writable",
                                          capsys)
    assert [p.name for p in workdir.iterdir()] == ["locked"]
    assert not any((workdir / "locked").iterdir())


def test_unwritable_output_file_exit_2(workdir, monkeypatch, capsys):
    kept = workdir / "kept.json"
    kept.write_text("old\n")
    _deny_writes(monkeypatch, kept)
    for argv in (["kernel-table", "--dim", "2", "--n", "5"], ["all"]):
        _refused_before_any_stage(argv + ["--output", "kept.json"], "is not writable", capsys)
    assert kept.read_text() == "old\n"
    assert [p.name for p in workdir.iterdir()] == ["kept.json"]


def test_moments_alpha_of_the_wrong_length_exit_2(workdir, capsys):
    # the library's own rule, refused before any draw or table
    for argv, message in ((["--dim", "2", "--alpha", "1,1,1"],
                           "D2 moments take multi-indices of length 2"),
                          (["--dim", "4", "--alpha", "1,1"],
                           "D4 moments take multi-indices of length 4")):
        _refused_before_any_stage(["moments", *argv], message, capsys)
    assert not list(workdir.iterdir())


def test_oversized_fourier_table_exit_2(workdir, capsys):
    assert main(["cantor-fourier", "--max-n", "1000000000"]) == 2
    assert "max_n must be in" in capsys.readouterr().err
    assert not (workdir / "cantor-fourier-report.json").exists()


def test_henkin_check_refuses_maxdeg_and_tol_before_building(workdir, capsys):
    # the rules of the identity check run before any table or witness exists,
    # so they name the caller's option, not a table's max_n or a witness's N
    for argv, name in ((["--dim", "2", "--level", "17", "--tol", "nan"], "tol"),
                       (["--dim", "4", "--maxdeg", "1000"], "maxdeg"),
                       (["--dim", "2", "--maxdeg", "2000000"], "maxdeg")):
        tracemalloc.start()
        try:
            assert main(["henkin-check", *argv]) == 2, argv
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert f"{name} must be" in err and "Traceback" not in err, argv
        assert peak < 2 ** 20, argv
        assert not list(workdir.iterdir()), argv


def test_all_passes_with_pinned_stages(workdir):
    assert main(["all"]) == 0
    rep = load_report(workdir / "all-report.json")
    assert rep["pass"] is True
    expected = json.loads(VERDICT_CHECKS.read_text(encoding="utf-8"))
    assert [row["check"] for row in rep["results"]] == expected
    stages = {sub["command"]: sub["config"] for sub in rep["config"]["subcommands"]}
    assert stages["peak-check"]["samples"] == 100_000
    assert rep["config"]["seed"] == checks.DEFAULT_SEED
