import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow.data import (
    BLOCK_ROWS,
    QX_EPS,
    RawSeries,
    RawTable,
    build_tensor,
    mx_to_qx,
    pool_and_convert,
    qx_to_mx,
    read_csv,
    suggest_bins,
    tensor_from_csv,
    tensor_from_rows,
)
from mortflow.errors import (
    CsvFormatError,
    DataError,
    DegenerateExposureError,
    MissingDataError,
    ShapeMismatchError,
)
from mortflow.synth import SyntheticSpec, generate, write_csv

from oracles import reference_pool


def rows_for(country, year, mx_f, mx_m):
    out = []
    for sex, mxs in (("f", mx_f), ("m", mx_m)):
        for age, mx in enumerate(mxs):
            out.append(RawSeries(country=country, sex=sex, age=age, year=year, mx=mx))
    return out


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------

def test_mx_to_qx_arithmetic():
    assert mx_to_qx(0.02) == pytest.approx(0.02 / 1.01, abs=1e-15)
    assert mx_to_qx(0.0) == 0.0
    # inverse round trip
    for mx in (1e-6, 0.01, 0.5, 1.9):
        assert qx_to_mx(mx_to_qx(mx)) == pytest.approx(mx, rel=1e-12)


def test_pooled_logit_value():
    # deaths 20 on exposure 1000: mx = .02, qx = mx/(1+mx/2), and the
    # odds collapse to mx/(1-mx/2), so logit(qx) = ln(.02/.99)
    rows = [
        RawSeries(country="X", sex=s, age=a, year=2000, deaths=20.0, exposure=1000.0)
        for s in ("f", "m") for a in range(3)
    ]
    schedules = pool_and_convert(rows)
    sched = schedules[("X", 2000)]
    expected = math.log(0.02 / 0.99)
    np.testing.assert_allclose(sched.logit_qx, expected, atol=1e-12)
    assert expected == pytest.approx(-3.901973, abs=1e-6)


def test_pooling_sums_deaths_and_exposure():
    rows = [
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=20.0, exposure=1000.0),
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=10.0, exposure=500.0),
        RawSeries(country="X", sex="m", age=0, year=2000, deaths=30.0, exposure=1500.0),
    ]
    sched = pool_and_convert(rows)[("X", 2000)]
    assert sched.mx[0, 0] == pytest.approx(30.0 / 1500.0)
    assert sched.mx[1, 0] == pytest.approx(0.02)


def test_zero_deaths_clamped():
    rows = [
        RawSeries(country="X", sex=s, age=0, year=2000, deaths=0.0, exposure=1000.0)
        for s in ("f", "m")
    ]
    sched = pool_and_convert(rows)[("X", 2000)]
    expected = math.log(QX_EPS / (1.0 - QX_EPS))
    assert sched.logit_qx[0, 0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-16.118096, abs=1e-5)


def test_huge_rate_clamped_below_one():
    rows = [
        RawSeries(country="X", sex=s, age=0, year=2000, deaths=5000.0, exposure=100.0)
        for s in ("f", "m")
    ]
    sched = pool_and_convert(rows)[("X", 2000)]
    assert sched.qx[0, 0] == 1.0 - QX_EPS


def test_zero_exposure_raises():
    rows = [RawSeries(country="X", sex="f", age=0, year=2000, deaths=1.0, exposure=0.0)]
    with pytest.raises(DegenerateExposureError):
        pool_and_convert(rows)


def test_explicit_empty_bin_raises():
    rows = rows_for("X", 2000, [0.01], [0.02])
    with pytest.raises(MissingDataError):
        pool_and_convert(rows, bin_plan=[(2000, 2000), (2005, 2006)])


def test_multi_year_bin_replicates_schedule():
    rows = rows_for("X", 2000, [0.010], [0.020]) + rows_for("X", 2001, [0.030], [0.040])
    schedules = pool_and_convert(rows, bin_plan=[(2000, 2001)])
    a, b = schedules[("X", 2000)], schedules[("X", 2001)]
    np.testing.assert_array_equal(a.mx, b.mx)
    # mx input pools by unweighted mean within the bin
    assert a.mx[0, 0] == pytest.approx(0.020)
    assert a.mx[1, 0] == pytest.approx(0.030)
    assert a.years == (2000, 2001)


def test_deaths_input_pools_by_ratio_of_sums():
    rows = [
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=10.0, exposure=100.0),
        RawSeries(country="X", sex="f", age=0, year=2001, deaths=0.0, exposure=900.0),
        RawSeries(country="X", sex="m", age=0, year=2000, deaths=5.0, exposure=100.0),
        RawSeries(country="X", sex="m", age=0, year=2001, deaths=5.0, exposure=900.0),
    ]
    sched = pool_and_convert(rows, bin_plan=[(2000, 2001)])[("X", 2000)]
    assert sched.mx[0, 0] == pytest.approx(10.0 / 1000.0)
    assert sched.mx[1, 0] == pytest.approx(10.0 / 1000.0)


# ----------------------------------------------------------------------
# Tensor assembly
# ----------------------------------------------------------------------

def test_tensor_dense_years_and_mask():
    rows = (rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
            + rows_for("A", 2003, [0.01, 0.02], [0.02, 0.03])
            + rows_for("B", 2001, [0.05, 0.06], [0.07, 0.08]))
    tensor = tensor_from_rows(rows)
    assert tensor.countries == ("A", "B")
    np.testing.assert_array_equal(tensor.years, [2000, 2001, 2002, 2003])
    assert tensor.values.shape == (2, 2, 2, 4)
    expected_mask = np.array([[True, False, False, True],
                              [False, True, False, False]])
    np.testing.assert_array_equal(tensor.mask, expected_mask)
    assert np.all(np.isnan(tensor.values[:, :, 0, 1]))
    assert np.all(np.isfinite(tensor.values[:, :, 1, 1]))


def test_incomplete_schedule_masked_out():
    rows = rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
    # year 2001 lacks age 1 for males
    rows += rows_for("A", 2001, [0.01, 0.02], [0.02, 0.03])
    rows = [r for r in rows if not (r.year == 2001 and r.sex == "m" and r.age == 1)]
    tensor = tensor_from_rows(rows)
    np.testing.assert_array_equal(tensor.mask[0], [True, False])


def test_mismatched_age_grids_raise():
    s1 = pool_and_convert(rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03]))
    s2 = pool_and_convert(rows_for("B", 2000, [0.01], [0.02]))
    with pytest.raises(ShapeMismatchError):
        build_tensor({**s1, **s2})


def test_row_order_does_not_matter():
    rows = (rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
            + rows_for("B", 2001, [0.05, 0.06], [0.07, 0.08]))
    t1 = tensor_from_rows(rows)
    t2 = tensor_from_rows(rows[::-1])
    np.testing.assert_array_equal(t1.mask, t2.mask)
    np.testing.assert_array_equal(t1.values[np.isfinite(t1.values)],
                                  t2.values[np.isfinite(t2.values)])
    assert t1.countries == t2.countries


def test_age_grid_truncation():
    rows = rows_for("A", 2000, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    tensor = tensor_from_rows(rows, n_ages=2)
    assert tensor.values.shape[1] == 2


# ----------------------------------------------------------------------
# CSV ingest
# ----------------------------------------------------------------------

def test_read_csv_both_formats(tmp_path):
    p1 = tmp_path / "rates.csv"
    p1.write_text(
        "country,sex,age,year,mx\n"
        "SWE,f,0,2000,0.004\n"
        "SWE,m,0,2000,0.005\n"
    )
    rows = read_csv(p1)
    assert len(rows) == 2 and rows[0].mx == 0.004 and rows[0].deaths is None

    p2 = tmp_path / "counts.csv"
    p2.write_text(
        "country,sex,age,year,deaths,exposure\n"
        "SWE,f,0,2000,12,3000\n"
    )
    rows = read_csv(p2)
    assert rows[0].deaths == 12.0 and rows[0].exposure == 3000.0 and rows[0].mx is None


def test_read_csv_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "country,sex,age,year,mx\n"
        "SWE,f,0,2000,0.004\n"
        "SWE,x,1,2000,0.004\n"
    )
    with pytest.raises(CsvFormatError) as err:
        read_csv(p)
    assert err.value.line == 3

    p.write_text("country,sex,age,year,mx\nSWE,f,zero,2000,0.004\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(p)
    assert err.value.line == 2


def test_read_csv_rejects_missing_columns(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("country,sex,age,year\nSWE,f,0,2000\n")
    with pytest.raises(CsvFormatError):
        read_csv(p)


def test_tensor_from_csv_round_trip(tmp_path):
    rows = (rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
            + rows_for("B", 2000, [0.05, 0.06], [0.07, 0.08]))
    p = tmp_path / "data.csv"
    lines = ["country,sex,age,year,mx"]
    for r in rows:
        lines.append(f"{r.country},{r.sex},{r.age},{r.year},{r.mx}")
    p.write_text("\n".join(lines) + "\n")
    t1 = tensor_from_csv(p)
    t2 = tensor_from_rows(rows)
    np.testing.assert_array_equal(t1.values[np.isfinite(t1.values)],
                                  t2.values[np.isfinite(t2.values)])


# ----------------------------------------------------------------------
# Adaptive binning helper
# ----------------------------------------------------------------------

def make_death_rows(yearly_deaths, start=2000):
    return [
        RawSeries(country="X", sex="f", age=0, year=start + i,
                  deaths=float(d), exposure=1000.0)
        for i, d in enumerate(yearly_deaths)
    ]


def test_suggest_bins_accumulates_to_threshold():
    plan = suggest_bins(make_death_rows([30, 30, 30, 100]), min_deaths=50)
    assert plan == [(2000, 2001), (2002, 2003)]


def test_suggest_bins_trailing_shortfall_merges_back():
    plan = suggest_bins(make_death_rows([100, 30]), min_deaths=50)
    assert plan == [(2000, 2001)]
    # no earlier bin to absorb the shortfall: keep the leftover bin
    plan = suggest_bins(make_death_rows([30, 10]), min_deaths=50)
    assert plan == [(2000, 2001)]


def test_suggest_bins_rich_years_stay_single():
    plan = suggest_bins(make_death_rows([80, 90, 100]), min_deaths=50)
    assert plan == [(2000, 2000), (2001, 2001), (2002, 2002)]


# ----------------------------------------------------------------------
# Columnar ingest: reference pooling, row checks, line numbers
# ----------------------------------------------------------------------

def pooled_or_error(pool, rows, **kwargs):
    try:
        return pool(rows, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


def assert_same_pool(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for key, (years, mx, qx, lq) in want.items():
        sched = got[key]
        assert sched.country == key[0] and sched.years == years
        np.testing.assert_array_equal(sched.ages, np.arange(mx.shape[1]))
        for a, b in ((sched.mx, mx), (sched.qx, qx), (sched.logit_qx, lq)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def pooling_cases(draw):
    layout = draw(st.sampled_from(["mx", "counts", "both"]))
    # values with a prime denominator: their sums round, so the order of
    # summation shows in the last bits
    value = st.integers(0, 500_000).map(lambda k: k / 999_983)
    rows = []
    for _ in range(draw(st.integers(1, 60))):
        kind = layout if layout != "both" else draw(
            st.sampled_from(["mx", "counts"]))
        cell = dict(country=draw(st.sampled_from("ABC")),
                    sex=draw(st.sampled_from("fm")),
                    age=draw(st.integers(0, 4)),
                    year=draw(st.integers(2000, 2004)))
        if kind == "mx":
            rows.append(RawSeries(**cell, mx=draw(value)))
        else:
            rows.append(RawSeries(**cell, deaths=100 * draw(value),
                                  exposure=draw(st.sampled_from(
                                      [0.0, 1.0, 250.0, 1e4]) | value)))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))  # duplicates
    rows = draw(st.permutations(rows))
    # drawn from a few spans as well, so that plans repeat and overlap
    span = st.tuples(st.integers(1999, 2005), st.integers(0, 3)).map(
        lambda p: (p[0], p[0] + p[1]))
    bin_plan = draw(st.none() | st.lists(
        span | st.sampled_from([(2000, 2000), (2000, 2002), (2001, 2004)]),
        min_size=1, max_size=5))
    n_ages = draw(st.none() | st.integers(1, 6))
    return rows, bin_plan, n_ages


@settings(max_examples=300, deadline=None)
@given(pooling_cases())
def test_pooling_matches_row_loop_reference_bit_for_bit(case):
    # overlapping and multi-year bins, ages above n_ages, duplicate rows,
    # shuffled order, mixed layouts: same schedules, same first error
    rows, bin_plan, n_ages = case
    want = pooled_or_error(reference_pool, rows, bin_plan=bin_plan,
                           n_ages=n_ages)
    for given_rows in (rows, RawTable.from_rows(rows)):
        got = pooled_or_error(pool_and_convert, given_rows,
                              bin_plan=bin_plan, n_ages=n_ages)
        assert_same_pool(got, want)


def test_repeated_bin_rewrites_its_years_where_the_plan_repeats_it():
    rows = rows_for("X", 2000, [0.01], [0.02]) + rows_for("X", 2001, [0.03],
                                                          [0.04])
    plan = [(2001, 2001), (2000, 2001), (2001, 2001)]
    schedules = pool_and_convert(rows, bin_plan=plan)
    assert schedules[("X", 2000)].years == (2000, 2001)
    assert schedules[("X", 2001)].years == (2001, 2001)
    assert_same_pool(schedules, reference_pool(rows, bin_plan=plan))


def test_csv_round_trip_reproduces_the_world_tensor(tmp_path):
    # more rows than one parse block holds
    world = generate(SyntheticSpec(n_countries=6, n_ages=12, n_years=50,
                                   stagger=3, seed=4))
    path = tmp_path / "world.csv"
    write_csv(world, path)
    assert world.tensor.mask.sum() * 2 * 12 > BLOCK_ROWS
    tensor = tensor_from_csv(path)
    assert tensor.countries == world.tensor.countries
    np.testing.assert_array_equal(tensor.years, world.tensor.years)
    np.testing.assert_array_equal(tensor.ages, world.tensor.ages)
    np.testing.assert_array_equal(tensor.mask, world.tensor.mask)
    obs = tensor.mask
    np.testing.assert_allclose(tensor.values[:, :, obs],
                               world.tensor.values[:, :, obs],
                               rtol=0, atol=1e-12)


def test_read_csv_table_indexes_rows(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_text("country,sex,age,year,deaths,exposure\n"
                 " SWE ,F,1,2000,12,3000\n"
                 "NOR,m,0,2001,0,10.5\n")
    table = read_csv(p)
    assert isinstance(table, RawTable) and len(table) == 2
    assert table[0] == RawSeries(country="SWE", sex="f", age=1, year=2000,
                                 deaths=12.0, exposure=3000.0)
    assert list(table)[1] == RawSeries(country="NOR", sex="m", age=0,
                                       year=2001, deaths=0.0, exposure=10.5)
    assert RawTable.from_rows(list(table))[1] == table[1]


GOOD_ROW = "SWE,f,0,2000,0.004\n"
# (bad row, line it sits on when it follows the header and one good row)
MALFORMED_ROWS = {
    "bad sex": ("SWE,x,1,2000,0.004\n", 3),
    "bad int": ("SWE,f,zero,2000,0.004\n", 3),
    "bad year": ("SWE,f,1,2000.5,0.004\n", 3),
    "bad float": ("SWE,f,1,2000,abc\n", 3),
    "short row": ("SWE,f,1,2000\n", 3),
    "negative value": ("SWE,f,1,2000,-0.004\n", 3),
    "blank lines before": ("\n\nSWE,f,1,2000,abc\n", 5),
    "quoted line break": ('"S\nWE",x,1,2000,0.004\n', 4),
}


@pytest.mark.parametrize("prefix_blocks", [0, 1])
@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_csv_errors_name_the_line_of_the_bad_row(tmp_path, case,
                                                 prefix_blocks):
    # the line numbers are those of the csv.DictReader loop that the block
    # parser replaced, also for a bad row after the first block
    bad, line = MALFORMED_ROWS[case]
    n_good = 1 + prefix_blocks * (BLOCK_ROWS + 7)
    p = tmp_path / "bad.csv"
    p.write_text("country,sex,age,year,mx\n" + GOOD_ROW * n_good + bad
                 + GOOD_ROW)
    with pytest.raises(CsvFormatError) as err:
        read_csv(p)
    assert err.value.line == line + n_good - 1
    assert str(err.value).startswith(f"line {err.value.line}: ")


@pytest.mark.parametrize("prefix_blocks", [0, 1])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("column", ["mx", "deaths", "exposure"])
def test_read_csv_rejects_non_finite_values(tmp_path, column, text,
                                            prefix_blocks):
    names = ["mx"] if column == "mx" else ["deaths", "exposure"]
    good = dict(mx="0.01", deaths="3", exposure="300")
    header = "country,sex,age,year," + ",".join(names) + "\n"

    def row(values):
        return "X,f,0,2000," + ",".join(values[n] for n in names) + "\n"

    n_good = 2 + prefix_blocks * BLOCK_ROWS
    p = tmp_path / "nonfinite.csv"
    p.write_text(header + row(good) * n_good + row({**good, column: text}))
    with pytest.raises(CsvFormatError, match=f"{column} must be finite") as err:
        read_csv(p)
    assert err.value.line == n_good + 2


@pytest.mark.parametrize("field", ["mx", "deaths", "exposure"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_raw_series_rejects_non_finite_values(field, value):
    good = dict(country="X", sex="f", age=0, year=2000)
    counts = dict(deaths=3.0, exposure=300.0)
    row = RawSeries(**good, **({**counts, field: value} if field != "mx"
                               else {"mx": value}))
    with pytest.raises(DataError, match="non-finite"):
        pool_and_convert([RawSeries(**good, mx=0.01), row])


def test_negative_ages_are_rejected(tmp_path):
    # they used to wrap round to the top age of the grid
    p = tmp_path / "age.csv"
    p.write_text("country,sex,age,year,mx\nX,f,0,2000,0.1\nX,f,-1,2000,0.1\n")
    with pytest.raises(CsvFormatError, match="age") as err:
        read_csv(p)
    assert err.value.line == 3
    with pytest.raises(DataError, match="negative age"):
        pool_and_convert([RawSeries(country="X", sex="f", age=-1, year=2000,
                                    mx=0.1)])


def test_csv_module_errors_carry_a_line(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("country,sex,age,year,mx\nX,f,0,2000,0.1\n"
                 "X,f,1,2000," + "1" * 200_000 + "\n")
    with pytest.raises(CsvFormatError, match="field larger") as err:
        read_csv(p)
    assert err.value.line == 3
