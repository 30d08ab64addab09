import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow import data
from mortflow.data import (
    BLOCK_ROWS,
    QX_EPS,
    RawSeries,
    RawTable,
    mx_to_qx,
    pool_and_convert,
    read_csv,
    tensor_from_csv,
)
from mortflow.errors import (
    CsvFormatError,
    DataError,
    DegenerateExposureError,
    MissingDataError,
)
from mortflow.lifetable import expit, logit
from mortflow.synth import SyntheticSpec, generate, write_csv

from oracles import reference_pool, reference_read_csv, reference_tensor


def rows_for(country, year, mx_f, mx_m):
    out = []
    for sex, mxs in (("f", mx_f), ("m", mx_m)):
        for age, mx in enumerate(mxs):
            out.append(RawSeries(country=country, sex=sex, age=age, year=year, mx=mx))
    return out


def pooled_mx(tensor, c=0, t=0):
    """The (2, A) central rates that one tensor cell's logit qx encodes."""
    qx = expit(tensor.values[:, :, c, t])
    return qx / (1.0 - qx / 2.0)


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------

def test_mx_to_qx_arithmetic():
    assert mx_to_qx(0.02) == pytest.approx(0.02 / 1.01, abs=1e-15)
    assert mx_to_qx(0.0) == 0.0
    # inverse round trip
    for mx in (1e-6, 0.01, 0.5, 1.9):
        qx = mx_to_qx(mx)
        assert qx / (1.0 - qx / 2.0) == pytest.approx(mx, rel=1e-12)


def test_pooled_logit_value():
    # deaths 20 on exposure 1000: mx = .02, qx = mx/(1+mx/2), and the
    # odds collapse to mx/(1-mx/2), so logit(qx) = ln(.02/.99)
    rows = [
        RawSeries(country="X", sex=s, age=a, year=2000, deaths=20.0, exposure=1000.0)
        for s in ("f", "m") for a in range(3)
    ]
    tensor = pool_and_convert(rows)
    expected = math.log(0.02 / 0.99)
    np.testing.assert_allclose(tensor.values[:, :, 0, 0], expected, atol=1e-12)
    assert expected == pytest.approx(-3.901973, abs=1e-6)


def test_pooling_sums_deaths_and_exposure():
    rows = [
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=20.0, exposure=1000.0),
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=10.0, exposure=500.0),
        RawSeries(country="X", sex="m", age=0, year=2000, deaths=30.0, exposure=1500.0),
    ]
    mx = pooled_mx(pool_and_convert(rows))
    assert mx[0, 0] == pytest.approx(30.0 / 1500.0)
    assert mx[1, 0] == pytest.approx(0.02)


def test_zero_deaths_clamped():
    rows = [
        RawSeries(country="X", sex=s, age=0, year=2000, deaths=0.0, exposure=1000.0)
        for s in ("f", "m")
    ]
    tensor = pool_and_convert(rows)
    expected = math.log(QX_EPS / (1.0 - QX_EPS))
    assert tensor.values[0, 0, 0, 0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-16.118096, abs=1e-5)


def test_huge_rate_clamped_below_one():
    rows = [
        RawSeries(country="X", sex=s, age=0, year=2000, deaths=5000.0, exposure=100.0)
        for s in ("f", "m")
    ]
    tensor = pool_and_convert(rows)
    assert tensor.values[0, 0, 0, 0] == logit(1.0 - QX_EPS)
    assert expit(tensor.values[0, 0, 0, 0]) == pytest.approx(1.0 - QX_EPS,
                                                             rel=0, abs=1e-15)


def test_zero_exposure_raises():
    rows = [RawSeries(country="X", sex="f", age=0, year=2000, deaths=1.0, exposure=0.0)]
    with pytest.raises(DegenerateExposureError):
        pool_and_convert(rows)


def test_explicit_empty_bin_raises():
    # each year is one pooling bin: a year whose rows all sit at or above
    # n_ages is left empty, and the error names it
    rows = (rows_for("X", 2000, [0.01, 0.02], [0.02, 0.03])
            + [r for r in rows_for("X", 2001, [0.01, 0.02], [0.02, 0.03])
               if r.age == 1])
    for pool in (pool_and_convert, reference_pool_and_convert):
        with pytest.raises(MissingDataError,
                           match=r"^year 2001 has no rows below age 1$"):
            pool(rows, n_ages=1)


def test_duplicate_mx_rows_pool_as_an_unweighted_mean():
    rows = rows_for("X", 2000, [0.010], [0.020]) + rows_for("X", 2000, [0.030],
                                                            [0.040])
    tensor = pool_and_convert(rows)
    np.testing.assert_array_equal(tensor.mask, [[True]])
    np.testing.assert_allclose(pooled_mx(tensor), [[0.020], [0.030]],
                               rtol=1e-12)


def test_deaths_input_pools_by_ratio_of_sums():
    # same-year duplicates: 10/100 and 0/900 pool to 10/1000, not to the
    # mean rate 0.05
    rows = [
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=10.0, exposure=100.0),
        RawSeries(country="X", sex="f", age=0, year=2000, deaths=0.0, exposure=900.0),
        RawSeries(country="X", sex="m", age=0, year=2000, deaths=5.0, exposure=100.0),
        RawSeries(country="X", sex="m", age=0, year=2000, deaths=5.0, exposure=900.0),
    ]
    mx = pooled_mx(pool_and_convert(rows))
    assert mx[0, 0] == pytest.approx(10.0 / 1000.0, rel=1e-12)
    assert mx[1, 0] == pytest.approx(10.0 / 1000.0, rel=1e-12)


# ----------------------------------------------------------------------
# Tensor assembly
# ----------------------------------------------------------------------

def test_tensor_dense_years_and_mask():
    rows = (rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
            + rows_for("A", 2003, [0.01, 0.02], [0.02, 0.03])
            + rows_for("B", 2001, [0.05, 0.06], [0.07, 0.08]))
    tensor = pool_and_convert(rows)
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
    tensor = pool_and_convert(rows)
    np.testing.assert_array_equal(tensor.mask[0], [True, False])


def test_row_order_does_not_matter():
    rows = (rows_for("A", 2000, [0.01, 0.02], [0.02, 0.03])
            + rows_for("B", 2001, [0.05, 0.06], [0.07, 0.08]))
    t1 = pool_and_convert(rows)
    t2 = pool_and_convert(rows[::-1])
    np.testing.assert_array_equal(t1.mask, t2.mask)
    np.testing.assert_array_equal(t1.values[np.isfinite(t1.values)],
                                  t2.values[np.isfinite(t2.values)])
    assert t1.countries == t2.countries


def test_age_grid_truncation():
    rows = rows_for("A", 2000, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    tensor = pool_and_convert(rows, n_ages=2)
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
    t2 = pool_and_convert(rows)
    np.testing.assert_array_equal(t1.values[np.isfinite(t1.values)],
                                  t2.values[np.isfinite(t2.values)])


# ----------------------------------------------------------------------
# Columnar ingest: reference pooling, row checks, line numbers
# ----------------------------------------------------------------------

def pooled_or_error(pool, rows, **kwargs):
    try:
        return pool(rows, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


def reference_pool_and_convert(rows, **kwargs):
    return reference_tensor(reference_pool(rows, **kwargs))


def assert_same_tensor(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.countries == want.countries
    for name in ("values", "mask", "years", "ages"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


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
    n_ages = draw(st.none() | st.integers(1, 6))
    return rows, n_ages


@settings(max_examples=300, deadline=None)
@given(pooling_cases())
def test_pooling_matches_row_loop_reference_bit_for_bit(case):
    # ages above n_ages, duplicate rows, shuffled order, mixed layouts:
    # the same tensor as the loop's schedules laid out, or the same first
    # error with the same message
    rows, n_ages = case
    want = pooled_or_error(reference_pool_and_convert, rows, n_ages=n_ages)
    for given_rows in (rows, RawTable.from_rows(rows)):
        got = pooled_or_error(pool_and_convert, given_rows, n_ages=n_ages)
        assert_same_tensor(got, want)


def test_a_pool_that_leaves_no_rate_raises():
    # rates that overflow to inf keep no cell
    huge = rows_for("X", 2000, [1e308], [1e308]) * 2
    for pool in (pool_and_convert, reference_pool_and_convert):
        with pytest.raises(MissingDataError, match="no schedules"), \
                np.errstate(over="ignore"):
            pool(huge)


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


@pytest.mark.parametrize("field, value", [("age", 1.5), ("year", 2000.7),
                                          ("age", 1.0), ("year", "2000")])
def test_raw_series_rejects_a_non_integer_age_or_year(field, value):
    # they used to be truncated: age 1.5 pooled as age 1
    row = RawSeries(**{**dict(country="X", sex="f", age=1, year=2000),
                       field: value}, mx=0.01)
    with pytest.raises(DataError, match=f"{field} must be an integer") as err:
        pool_and_convert([RawSeries(country="X", sex="f", age=0, year=2000,
                                    mx=0.01), row])
    assert str(row) in str(err.value)


def test_a_country_with_no_complete_year_gets_an_all_false_mask_row(
        tmp_path):
    # Z's female rows are all in 2000 and its male rows in 2001: Z is a
    # column of the tensor, observed in no year
    p = tmp_path / "unobserved.csv"
    p.write_text("country,sex,age,year,mx\n"
                 "A,f,0,2000,0.01\nA,m,0,2000,0.02\n"
                 "A,f,0,2001,0.01\nA,m,0,2001,0.02\n"
                 "Z,f,0,2000,0.03\nZ,m,0,2001,0.04\n")
    tensor = tensor_from_csv(p)
    assert tensor.countries == ("A", "Z")
    np.testing.assert_array_equal(tensor.mask, [[True, True],
                                                [False, False]])
    np.testing.assert_array_equal(np.isfinite(tensor.values[:, 0, 1]),
                                  [[True, False], [False, True]])


def test_csv_module_errors_carry_a_line(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text("country,sex,age,year,mx\nX,f,0,2000,0.1\n"
                 "X,f,1,2000," + "1" * 200_000 + "\n")
    with pytest.raises(CsvFormatError, match="field larger") as err:
        read_csv(p)
    assert err.value.line == 3


# ----------------------------------------------------------------------
# The tokenizer path in front of the row parser
# ----------------------------------------------------------------------

class RowParserRan(Exception):
    pass


def _row_parser_ran(self, *args):
    raise RowParserRan


def tokenizer_only(monkeypatch):
    """read_csv fails with RowParserRan unless the tokenizer reads the file."""
    monkeypatch.setattr(data._BlockParser, "add", _row_parser_ran)


def row_parser_only(monkeypatch):
    monkeypatch.setattr(data, "_tokenized", lambda fh, parser: None)


PATHS = {"tokenizer": tokenizer_only, "row parser": row_parser_only}


def read_or_error(read, path):
    """The table a reader gives, or its CsvFormatError's (line, message)."""
    try:
        return read(path)
    except CsvFormatError as exc:
        return exc.line, str(exc)


def assert_same_read(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, RawTable), got
    assert got.countries == want.countries
    for name in ("country", "sex", "age", "year", "mx", "deaths", "exposure"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def csv_file(tmp_path, body, header="country,sex,age,year,mx\n"):
    """A file holding exactly header + body, line ends as given."""
    p = tmp_path / "body.csv"
    p.write_bytes((header + body).encode("utf-8"))
    return p


@pytest.mark.parametrize("path", sorted(PATHS))
def test_spaced_header_reads_like_the_unspaced_one(tmp_path, monkeypatch,
                                                   path):
    # the header check stripped the names, the field lookup did not: each
    # row failed with "line 2: 'sex'"
    body = "SWE,f,0,2000,0.004\nNOR,m,1,2001,0.005\n"
    want = reference_read_csv(csv_file(tmp_path, body))
    PATHS[path](monkeypatch)
    got = read_csv(csv_file(tmp_path, body,
                            header=" country, sex ,age,  year,mx \n"))
    assert_same_read(got, want)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_repeated_header_name_reads_its_last_field(tmp_path, monkeypatch,
                                                     path):
    PATHS[path](monkeypatch)
    table = read_csv(csv_file(tmp_path, "A,f,0,2000,0.1,0.2\n",
                              header="country,sex,age,year,mx, mx\n"))
    assert table.mx.tolist() == [0.2]


# forms Python's int() and float() accept, which the tokenizer must read
# to the same value
TOKENIZER_READS = {
    "plus sign": "A,f,+5,+2000,+0.1\n",
    "padded numerals": "A,f, 5 ,\t2000 ,  0.1 \n",
    "quoted numerals": 'A,f,"5","2000","0.1"\n',
    "doubled quotes": '"A ""x""",f,5,2000,0.1\n',
    "line breaks in quotes": '"A\nx",f,5,2000,0.1\r\n"B\r\ny",m,5,2000,0.1\n',
    "hash in a name": "A#1,f,5,2000,0.1\n#B,m,5,2000,0.1\n",
    "negative zero": "A,f,5,2000,-0.0\n",
    "long name, not truncated": "A" * 2000 + ",f,5,2000,0.1\n",
    "blank lines": "A,f,5,2000,0.1\n\n\r\nB,m,5,2000,0.1\n\n",
}
# forms the tokenizer must leave to the row parser: Python reads them,
# or the csv module rejects them
TOKENIZER_REJECTS = {
    "digit separators": "A,f,1_000,2000,0.000_1\n",
    "arabic-indic digits": "A,f,\u0661,2000,0.1\n",
    "fullwidth digits": "A,f,\uff19,2000,0.1\n",
    "a field past the csv field limit":
        "A,f,5,2000,0.1" + "0" * 200_000 + "\n",
    "a NUL, which Python 3.10's csv rejects": "A\0B,f,5,2000,0.1\n",
    "information separators, which loadtxt strips from numerals":
        "A,f,\x1c5,2000,0.1\x1f\n",
}
# forms numpy 2.4's loadtxt reads to the row parser's values under
# usecols, though older ones may send them to the row parser
EITHER_READS = {
    "ragged rows": "A,f,0,2000,0.1\nB,m,1,2001,0.2,9\n",
    "trailing commas": "A,f,0,2000,0.1,\nB,m,1,2001,0.2,\n",
    "CR-only line ends": "A,f,0,2000,0.1\rB,m,1,2001,0.2\r",
    "mixed line ends": "A,f,0,2000,0.1\r\nB,m,1,2001,0.2\rC,f,0,2000,0.3\n",
}
# forms both paths reject, with the row parser's line and message
REJECTED = {
    "nan": "A,f,5,2000,nan\n",
    "infinity": "A,f,5,2000,inf\n",
    "overflow to infinity": "A,f,5,2000,1e400\n",
    "a whitespace-only line": "A,f,5,2000,0.1\n   \nB,f,5,2000,0.1\n",
    "1.0 as an integer": "A,f,1.0,2000,0.1\n",
    "1e2 as an integer": "A,f,1e2,2000,0.1\n",
    "an age beyond int64": "A,f,9223372036854775808,2000,0.1\n",
    "a year beyond int64": "A,f,5,-9223372036854775809,0.1\n",
    "a multi-line name past the csv field limit":
        '"' + "x\n" * 70_000 + '",f,5,2000,0.1\n',
}
PITFALLS = {**TOKENIZER_READS, **TOKENIZER_REJECTS, **EITHER_READS,
            **REJECTED}


@pytest.mark.parametrize("case", sorted(PITFALLS))
def test_read_csv_matches_the_row_parser_on_every_pitfall(tmp_path, case):
    p = csv_file(tmp_path, "B,m,0,1999,0.2\n" + PITFALLS[case])
    want = read_or_error(reference_read_csv, p)
    assert isinstance(want, tuple) or case not in REJECTED
    assert_same_read(read_or_error(read_csv, p), want)


@pytest.mark.parametrize("case", sorted(TOKENIZER_READS))
def test_the_tokenizer_reads_pythons_value(tmp_path, monkeypatch, case):
    p = csv_file(tmp_path, "B,m,0,1999,0.2\n" + TOKENIZER_READS[case])
    want = reference_read_csv(p)
    tokenizer_only(monkeypatch)
    assert_same_read(read_csv(p), want)


@pytest.mark.parametrize("case", sorted(TOKENIZER_REJECTS))
def test_forms_the_tokenizer_rejects_go_to_the_row_parser(
        tmp_path, monkeypatch, case):
    p = csv_file(tmp_path, "B,m,0,1999,0.2\n" + TOKENIZER_REJECTS[case])
    tables = []
    tokenized = data._tokenized
    monkeypatch.setattr(data, "_tokenized", lambda fh, parser: tables.append(
        tokenized(fh, parser)))
    read_or_error(read_csv, p)
    assert tables == [None]


def test_the_tokenizer_reads_the_world_csv_across_chunks(tmp_path,
                                                         monkeypatch):
    world = generate(SyntheticSpec(n_countries=4, n_ages=10, n_years=30,
                                   stagger=3, seed=5))
    path = tmp_path / "world.csv"
    write_csv(world, path)
    want = reference_read_csv(path)
    tokenizer_only(monkeypatch)
    monkeypatch.setattr(data, "TOKENIZER_ROWS", 97)
    monkeypatch.setattr(data, "_BATCH_CHARS", 1000)
    assert len(want) > 10 * 97
    assert_same_read(read_csv(path), want)


def test_a_body_of_whole_chunks_ends_on_an_empty_read(tmp_path,
                                                      monkeypatch):
    # loadtxt warns of the empty read after a full last chunk
    p = csv_file(tmp_path, "A,f,0,2000,0.1\nB,m,1,2001,0.2\n")
    want = reference_read_csv(p)
    tokenizer_only(monkeypatch)
    monkeypatch.setattr(data, "TOKENIZER_ROWS", 2)
    assert_same_read(read_csv(p), want)


@pytest.mark.parametrize("category", [DeprecationWarning, UserWarning])
def test_a_warning_from_the_tokenizer_sends_the_file_to_the_row_parser(
        tmp_path, monkeypatch, category):
    # numpy 1.23-1.26 read "1.0" as the integer 1 and only warn
    p = csv_file(tmp_path, "A,f,0,2000,0.1\n")
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("a form read on the tokenizer's own terms", category)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(data.np, "loadtxt", warning_loadtxt)
    tables = []
    tokenized = data._tokenized
    monkeypatch.setattr(data, "_tokenized", lambda fh, parser: tables.append(
        tokenized(fh, parser)))
    assert_same_read(read_csv(p), reference_read_csv(p))
    assert tables == [None]


def test_an_empty_body_raises_no_data_rows(tmp_path):
    p = csv_file(tmp_path, "\n\r\n")
    with pytest.raises(CsvFormatError, match="no data rows") as err:
        read_csv(p)
    assert err.value.line == 1


# CSV text: quoted and bare fields, commas, quotes and line breaks inside
# names, blank lines, odd numerals, long names, non-finite and negative
# values, ragged rows and every line end.  Fields are drawn by a seeded
# random.Random, so that odd ones come at a set rate (none in half the
# files) and many files read.
def _name(rng):
    if rng.random() < 0.05:
        return "ab" * rng.randint(150, 300)
    return "".join(rng.choice('SWEab ,"\n\r#\t\u00c5\u0661')
                   for _ in range(rng.randint(1, 8)))


def _value(rng):
    return repr(rng.choice([rng.random(), rng.lognormvariate(-5, 4),
                            float(rng.randint(0, 1000))]))


WELL_FORMED = {
    "name": [_name, "SWE", " NOR ", "\u00c5land", "A,B", 'say "hi"', "x\ny",
             "x\r\ny", "#1"],
    "sex": ["f", "m", "F", " m ", "M\t"],
    "int": [lambda rng: str(rng.randint(0, 130)), "+5", " 7 ", "007", "-0",
            "\t12"],
    "value": [_value, "-0.0", " 2.5 ", "+.5e-3", "1.", "1e-400", "0",
              "1E3"],
}
ODD = {
    "name": ["", 'a"b', '"ab"c', ' "ab"', "\0"],
    "sex": ["x", "", "fm"],
    "int": ["-1", "1_0", "\u0661", "\uff19", "1.0", "1e2", "", " ",
            "9223372036854775808", "-9223372036854775809", "\x1c5", "5\x1f"],
    "value": [lambda rng: repr(-rng.random()), "1e400", "nan", "-inf",
              "Infinity", "0.1_1", "", "\u0661.5", "0x10", "\x1e0.5"],
}
KIND = {"country": "name", "note": "name", "sex": "sex", "age": "int",
        "year": "int", "mx": "value", "deaths": "value",
        "exposure": "value"}
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    header = list(data._KEYS) + rng.choice([["mx"], ["deaths", "exposure"],
                                            ["mx", "note"]])
    rng.shuffle(header)
    odd = rng.choice([0, 0, 0.01, 0.1])  # rate of odd fields and short rows
    end = rng.choice(LINE_ENDS)
    lines = [",".join(header) + end]
    for _ in range(draw(st.integers(1, 12))):
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "  ", ","]) + end)
            continue
        fields = []
        for name in header:
            bad = rng.random() < odd
            text = rng.choice((ODD if bad else WELL_FORMED)[KIND[name]])
            text = text if isinstance(text, str) else text(rng)
            if any(c in text for c in ',"\r\n') or rng.random() < 0.3:
                if not (bad and rng.random() < 0.5):  # else left bare
                    text = '"' + text.replace('"', '""') + '"'
            fields.append(text)
        if rng.random() < odd:
            fields = fields[:rng.randrange(len(fields))]
        elif rng.random() < 0.05:
            fields.append("9")
        if rng.random() < 0.1:
            end = rng.choice(LINE_ENDS)
        lines.append(",".join(fields) + end)
    text = "".join(lines)
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), chunk=st.sampled_from([1, 2, 3, 8192]),
       batch=st.sampled_from([1, 7, 1 << 17]))
def test_read_csv_gives_the_row_parsers_table_or_error(tmp_path_factory,
                                                       text, chunk, batch):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    want = read_or_error(reference_read_csv, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "TOKENIZER_ROWS", chunk)
        mp.setattr(data, "_BATCH_CHARS", batch)
        got = read_or_error(read_csv, path)
    assert_same_read(got, want)


def test_a_file_that_is_not_utf8_raises_unicode_error_on_both_paths(
        tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"country,sex,age,year,mx\nA,f,0,2000,0.1\nB\xe9,f,0,2000,0.1\n")
    for read in (reference_read_csv, read_csv):
        with pytest.raises(UnicodeDecodeError):
            read(p)
