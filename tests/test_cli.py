import csv
import json
import math
import shutil

import numpy as np
import pytest

from mortflow.artifact import load_model
from mortflow.cli import build_parser, half_life, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_csv(workdir):
    path = workdir / "panel.csv"
    rc = main(["synth", "--countries", "5", "--ages", "12", "--years", "40",
               "--stagger", "3", "--seed", "11", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def split_csvs(data_csv, workdir):
    """Four training countries plus one held out for tier-2 entry."""
    with open(data_csv) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    train = workdir / "train.csv"
    held = workdir / "held.csv"
    for path, keep in ((train, lambda r: r[0] != "S04"),
                       (held, lambda r: r[0] == "S04")):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(r for r in body if keep(r))
    return train, held


@pytest.fixture(scope="module")
def model_json(split_csvs, workdir):
    train, _ = split_csvs
    out = workdir / "model.json"
    rc = main(["fit", "--input", str(train), "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    return out


# ----------------------------------------------------------------- synth


def test_synth_is_seed_deterministic(data_csv, workdir):
    again = workdir / "again.csv"
    assert main(["synth", "--countries", "5", "--ages", "12", "--years",
                 "40", "--stagger", "3", "--seed", "11",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == data_csv.read_bytes()
    other = workdir / "other.csv"
    assert main(["synth", "--countries", "5", "--ages", "12", "--years",
                 "40", "--stagger", "3", "--seed", "12",
                 "--out", str(other)]) == 0
    assert other.read_bytes() != data_csv.read_bytes()


def test_synth_writes_truth_alongside(data_csv):
    truth = json.loads(
        data_csv.with_suffix("").with_suffix(".truth.json").read_text())
    assert truth["spec"]["alpha"] == 0.85
    assert truth["spec"]["seed"] == 11
    assert len(truth["entry_years"]) == 5


# ------------------------------------------------------------------- fit


def test_fit_echoes_config_into_artifact(split_csvs, workdir, capsys):
    train, _ = split_csvs
    out = workdir / "echo.json"
    rc = main(["fit", "--input", str(train), "--ranks", "2,6,4,10",
               "--pcs", "3", "--tau", "12", "--window", "40",
               "--origin", "1935", "--seed", "7", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    config = doc["meta"]["config"]
    assert config["ranks"] == [2, 6, 4, 10]
    assert config["n_components"] == 3
    assert config["tau"] == 12.0
    assert config["window"] == 40.0
    assert config["origin"] == 1935
    assert config["seed"] == 7
    stdout = capsys.readouterr().out
    assert "variance share" in stdout
    assert "half-life" in stdout


def test_fit_same_command_twice_is_byte_identical(split_csvs, workdir):
    train, _ = split_csvs
    a, b = workdir / "rep_a.json", workdir / "rep_b.json"
    argv = ["fit", "--input", str(train), "--pcs", "4", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_oversized_rank_exits_2(split_csvs, workdir, capsys):
    train, _ = split_csvs
    rc = main(["fit", "--input", str(train), "--ranks", "2,50,4,10",
               "--out", str(workdir / "never.json")])
    assert rc == 2
    assert "rank" in capsys.readouterr().err.lower()


def test_fit_malformed_csv_exits_2(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("who,what\n1,2\n")
    rc = main(["fit", "--input", str(bad),
               "--out", str(workdir / "never.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_fit_header_field_over_the_csv_limit_exits_2_at_line_1(workdir,
                                                              capsys):
    bad = workdir / "long_header.csv"
    bad.write_text("country,sex,age,year,mx," + "n" * 200_000
                   + "\nX,f,0,2000,0.1,0\n")
    rc = main(["fit", "--input", str(bad),
               "--out", str(workdir / "never.json")])
    assert rc == 2
    assert "error: line 1: field larger" in capsys.readouterr().err


def test_fit_missing_input_exits_2(workdir, capsys):
    rc = main(["fit", "--input", str(workdir / "nowhere.csv"),
               "--out", str(workdir / "never.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_fit_too_little_history_exits_3(data_csv, workdir):
    with open(data_csv) as fh:
        rows = list(csv.reader(fh))
    short = workdir / "short.csv"
    with open(short, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(r for r in rows[1:]
                         if r[0] == "S00" and int(r[3]) < 1906)
    rc = main(["fit", "--input", str(short),
               "--out", str(workdir / "never.json")])
    assert rc == 3


def test_fit_a_year_with_no_row_below_the_age_grid_exits_3(workdir, capsys):
    # age 110 is the top of the grid, so 2011's rows all drop out
    path = workdir / "top_age_year.csv"
    lines = ["country,sex,age,year,mx"]
    lines += [f"A,{sex},{age},2010,0.01" for sex in "fm" for age in (0, 1)]
    lines += [f"A,{sex},110,2011,0.5" for sex in "fm"]
    path.write_text("\n".join(lines) + "\n")
    rc = main(["fit", "--input", str(path),
               "--out", str(workdir / "never.json")])
    assert rc == 3
    assert capsys.readouterr().err == \
        "error: year 2011 has no rows below age 110\n"


# -------------------------------------------------------------- forecast


def test_forecast_country_writes_summary_and_schedule(model_json, workdir):
    prefix = workdir / "fc"
    rc = main(["forecast", "--model", str(model_json), "--country", "S00",
               "--horizon", "50", "--out", str(prefix)])
    assert rc == 0
    summary = list(csv.reader(open(f"{prefix}_summary.csv")))
    assert summary[0][:6] == ["country", "horizon", "year", "e0_f", "e0_m",
                              "e0_avg"]
    assert len(summary) == 51
    assert all(row[0] == "S00" for row in summary[1:])
    # bands stay blank without calibration
    assert summary[1][6:] == ["", "", "", ""]
    schedule = list(csv.reader(open(f"{prefix}_schedule.csv")))
    assert len(schedule) == 1 + 50 * 2 * 12


def test_forecast_unknown_country_exits_2(model_json, workdir, capsys):
    rc = main(["forecast", "--model", str(model_json), "--country", "XXX",
               "--out", str(workdir / "no")])
    assert rc == 2
    assert "not in the model" in capsys.readouterr().err


def test_forecast_intervals_without_calibration_exits_2(model_json,
                                                        workdir, capsys):
    rc = main(["forecast", "--model", str(model_json), "--country", "S00",
               "--intervals", "--out", str(workdir / "no")])
    assert rc == 2
    assert "calibration" in capsys.readouterr().err.lower()


def test_forecast_tier1_from_e0_series(model_json, workdir):
    e0_csv = workdir / "subject.csv"
    with open(e0_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "e0"])
        for i in range(10):
            writer.writerow([1990 + i, 8.0 + 0.1 * i])
    prefix = workdir / "t1"
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--horizon", "20",
               "--out", str(prefix)])
    assert rc == 0
    summary = list(csv.reader(open(f"{prefix}_summary.csv")))
    assert len(summary) == 21
    assert summary[1][0] == "subject"
    assert summary[1][2] == "2000"


def test_forecast_tier1_needs_two_points(model_json, workdir, capsys):
    e0_csv = workdir / "single.csv"
    e0_csv.write_text("year,e0\n2000,70.0\n")
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--out", str(workdir / "no")])
    assert rc == 2
    assert "2 e0 points" in capsys.readouterr().err


def test_forecast_tier2_from_schedule_csv(model_json, split_csvs, workdir):
    _, held = split_csvs
    prefix = workdir / "t2"
    rc = main(["forecast", "--model", str(model_json),
               "--tier2-schedule", str(held), "--horizon", "15",
               "--out", str(prefix)])
    assert rc == 0
    summary = list(csv.reader(open(f"{prefix}_summary.csv")))
    assert len(summary) == 16
    assert summary[1][0] == "S04"
    e0 = np.array([float(row[5]) for row in summary[1:]])
    assert np.all(np.isfinite(e0))


# -------------------------------------------------------------------- cv


def test_cv_inclusive_writes_grid_records_metrics(split_csvs, workdir):
    train, _ = split_csvs
    prefix = workdir / "cv"
    rc = main(["cv", "--input", str(train), "--grid-w", "0.5,1.0",
               "--grid-tau", "12,20", "--horizon", "10",
               "--out", str(prefix)])
    assert rc == 0
    grid = list(csv.reader(open(f"{prefix}_grid.csv")))
    assert grid[0] == ["w", "tau", "mae", "n"]
    assert len(grid) == 5
    records = list(csv.reader(open(f"{prefix}_records.csv")))
    assert records[0] == ["country", "origin", "h", "e0_hat", "e0_obs",
                          "err"]
    assert len(records) > 1
    payload = json.loads((workdir / "cv_metrics.json").read_text())
    assert payload["config"]["seed"] == 0
    assert payload["config"]["w"] in (0.5, 1.0)
    assert payload["grid_best"]["mae"] >= 0.0
    assert payload["report"]["e0"]["n"] == len(records) - 1


def test_cv_strict_parallel_matches_serial_and_calibrates(
        split_csvs, model_json, workdir):
    train, _ = split_csvs
    calibrated = workdir / "model_cal.json"
    shutil.copy(model_json, calibrated)
    base = ["cv", "--input", str(train), "--strict-loco", "--skip-grid",
            "--w", "1.0", "--tau", "12", "--horizon", "10",
            "--spacing", "5"]
    rc = main(base + ["--jobs", "1", "--model", str(calibrated),
                      "--out", str(workdir / "p1")])
    assert rc == 0
    rc = main(base + ["--jobs", "2", "--out", str(workdir / "p2")])
    assert rc == 0
    assert (workdir / "p1_records.csv").read_bytes() == \
           (workdir / "p2_records.csv").read_bytes()

    doc = json.loads(calibrated.read_text())
    assert doc["calibration"] is not None
    fitted = load_model(calibrated)
    assert fitted.calibration.sigma1 > 0

    # a calibrated artifact emits interval bands without being asked
    prefix = workdir / "banded"
    rc = main(["forecast", "--model", str(calibrated), "--country", "S00",
               "--horizon", "10", "--out", str(prefix)])
    assert rc == 0
    summary = list(csv.reader(open(f"{prefix}_summary.csv")))
    lo80, hi80 = float(summary[1][6]), float(summary[1][7])
    assert lo80 < float(summary[1][5]) < hi80


def test_cv_single_country_exits_3(data_csv, workdir):
    with open(data_csv) as fh:
        rows = list(csv.reader(fh))
    lone = workdir / "lone.csv"
    with open(lone, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(r for r in rows[1:] if r[0] == "S00")
    rc = main(["cv", "--input", str(lone), "--skip-grid",
               "--out", str(workdir / "no")])
    assert rc == 3


# ------------------------------------------------------------- plumbing


def test_default_grid_is_the_fifteen_cell_protocol():
    parser = build_parser()
    args = parser.parse_args(["cv", "--input", "x.csv"])
    assert args.grid_w == (0.2, 0.5, 1.0)
    assert args.grid_tau == (10.0, 12.0, 15.0, 20.0, 30.0)
    assert len(args.grid_w) * len(args.grid_tau) == 15


@pytest.mark.parametrize("option", ["--grid-w", "--grid-tau"])
def test_cv_repeated_grid_value_is_a_usage_error(option, capsys):
    # argparse rejects it (exit 2) before the input is even read
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--input", "missing.csv", option, "1,0.5,1"])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_half_life_reference_points():
    assert half_life(0.5) == 1.0
    assert np.isclose(half_life(2.0 ** -0.1), 10.0)
    assert half_life(0.0) == 0.0
    assert half_life(1.0) == math.inf


# --------------------------------------------------------- input errors


@pytest.mark.parametrize("body,message", [
    ("2000,70.0\n2001,abc\n", "could not convert"),
    ("2000,70.0\n20x1,70.5\n", "could not convert"),
    ("2000,70.0\n2001,nan\n", "must be finite"),
    ("2000,70.0\n2001,inf\n", "must be finite"),
    ("2000,70.0\nnan,70.5\n", "must be finite"),
    ("2000,70.0\n2000,70.5\n", "repeated year"),
    ("2000,70.0\n2001\n", "fields"),
])
def test_forecast_tier1_bad_row_exits_2_with_its_line(model_json, workdir,
                                                      capsys, body, message):
    e0_csv = workdir / "bad_e0.csv"
    e0_csv.write_text("year,e0\n" + body + "2002,71.0\n")
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--out", str(workdir / "no")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3:" in err and message in err


def test_forecast_tier1_csv_is_read_as_utf8(model_json, workdir, capsys):
    e0_csv = workdir / "latin1_e0.csv"
    e0_csv.write_bytes(b"year,e0\n2000,70.0\n2001,7\xb50\n")
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--out", str(workdir / "no")])
    assert rc == 2
    assert "utf-8" in capsys.readouterr().err


def test_fit_non_finite_rate_exits_2_with_its_line(data_csv, workdir, capsys):
    rows = data_csv.read_text().splitlines(keepends=True)
    bad = workdir / "nan.csv"
    fields = rows[6].split(",")
    bad.write_text("".join(rows[:6]) + ",".join(fields[:4] + ["nan\n"])
                   + "".join(rows[7:]))
    rc = main(["fit", "--input", str(bad), "--out", str(workdir / "no.json")])
    assert rc == 2
    assert "line 7: mx must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["forecast", "--model", "{model}", "--country", "S00", "--w", "1.5"],
    ["forecast", "--model", "{model}", "--country", "S00", "--horizon", "0"],
    ["fit", "--input", "{train}", "--tau", "0"],
    ["fit", "--input", "{train}", "--window", "-1"],
    ["fit", "--input", "{train}", "--pcs", "0"],
    ["synth", "--alpha", "1.5"],
    ["synth", "--countries", "0"],
])
def test_out_of_range_settings_exit_2(model_json, split_csvs, workdir,
                                      capsys, argv):
    train, _ = split_csvs
    argv = [a.format(model=model_json, train=train) for a in argv]
    rc = main(argv + ["--out", str(workdir / "never")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_value_error_exits_4(split_csvs, workdir, capsys,
                                      monkeypatch):
    # a ValueError from inside the package is a bug, not a usage error
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("mortflow.cli.fit_model", broken)
    train, _ = split_csvs
    rc = main(["fit", "--input", str(train),
               "--out", str(workdir / "never.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("internal error: ")


@pytest.mark.parametrize("flag", [["--w", "2"], ["--horizon", "0"],
                                  ["--spacing", "0"], ["--min-train", "1"]])
def test_cv_out_of_range_settings_exit_2(split_csvs, workdir, capsys, flag):
    train, _ = split_csvs
    rc = main(["cv", "--input", str(train), *flag,
               "--out", str(workdir / "never")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["fit", "--seed", "-1"], "seed must be non-negative, not -1"),
    (["fit", "--tau", "nan"], "tau must be positive and finite, not nan"),
    (["fit", "--window", "inf"],
     "window must be positive and finite, not inf"),
    (["cv", "--seed", "-2"], "seed must be non-negative, not -2"),
    (["cv", "--tau", "-1"], "tau must be positive and finite, not -1.0"),
    (["cv", "--window", "0"], "window must be positive and finite, not 0.0"),
])
def test_bad_fit_settings_exit_2_before_the_csv_is_read(workdir, capsys,
                                                        argv, message):
    # the input does not exist: the settings are checked first
    rc = main([*argv, "--input", str(workdir / "absent.csv"),
               "--out", str(workdir / "never")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_forecast_tier1_skips_blank_lines(model_json, workdir):
    e0_csv = workdir / "blank_e0.csv"
    e0_csv.write_text("year,e0\n\n2000,8.0\n\n2001,8.1\n2002,8.2\n\n")
    prefix = workdir / "blank"
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--horizon", "5",
               "--out", str(prefix)])
    assert rc == 0
    summary = list(csv.reader(open(f"{prefix}_summary.csv")))
    assert summary[1][2] == "2003"


def test_forecast_tier1_error_after_blank_line_names_its_line(
        model_json, workdir, capsys):
    e0_csv = workdir / "blank_bad_e0.csv"
    e0_csv.write_text("year,e0\n2000,8.0\n\n\n2001,abc\n")
    rc = main(["forecast", "--model", str(model_json),
               "--tier1-e0", str(e0_csv), "--out", str(workdir / "no")])
    assert rc == 2
    assert "line 5:" in capsys.readouterr().err


def test_forecast_tier2_without_a_complete_year_exits_3(model_json,
                                                        split_csvs, workdir,
                                                        capsys):
    # it used to die with an IndexError (exit 1) in _tier2_from_csv
    _, held = split_csvs
    with open(held, newline="") as fh:
        rows = list(csv.reader(fh))
    female = workdir / "held_female.csv"
    with open(female, "w", newline="") as fh:
        csv.writer(fh).writerows(r for r in rows if r[1] != "m")
    rc = main(["forecast", "--model", str(model_json),
               "--tier2-schedule", str(female),
               "--out", str(workdir / "no")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(female) in err
    assert "complete schedule for both sexes" in err
