"""Input data model: raw count rows to a masked logit-rate tensor.

The pipeline consumes a 4-way tensor of logit death probabilities
(sex x age x country x year) with a country-by-year observation mask.
This module owns the way raw rows become that tensor: parsing them into
typed columns, pooling the rows of each (country, year) cell, converting
central rates to clamped logit probabilities, and writing the pooled
schedules straight into the tensor along a dense year axis.

A CSV body is read by numpy's C tokenizer, and a file the tokenizer or
its bulk checks reject is read again by the row parser (csv.reader
rows, one record at a time).  The tokenizer is a fast path that may
only accept less than the row parser, never more or differently; the
row parser defines what is valid and names the line of the first error.
"""

import csv
import math
import re
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

import numpy as np

from .errors import (
    CsvFormatError,
    DataError,
    DegenerateExposureError,
    MissingDataError,
)
from .lifetable import logit

SEXES = ("f", "m")

# probabilities are clamped into (QX_EPS, 1 - QX_EPS) before the logit
QX_EPS = 1e-7

# default top of the age grid; observed ages above it are dropped
MAX_AGES = 110

# CSV rows the row parser reads at a time: bounds the transient row lists
BLOCK_ROWS = 4096
# rows numpy's tokenizer reads at a time: bounds its transient object
# columns; the lines it reads come _BATCH_CHARS characters at a time
TOKENIZER_ROWS = 8192
_BATCH_CHARS = 1 << 17

_KEYS = ("country", "sex", "age", "year")
_VALUES = ("mx", "deaths", "exposure")
_INT64 = 2 ** 63
# what ends a line when a file is read with newline=""
_LINE_BREAK = re.compile("\r\n|\r|\n")
# characters the tokenizer reads differently: NUL, which the csv module
# of Python 3.10 rejects, and the separators \x1c-\x1f, which loadtxt
# strips from around a numeral and int() and float() do not
_UNTOKENIZABLE = "\0\x1c\x1d\x1e\x1f"


@dataclass
class RawSeries:
    """One observation row: a (country, sex, age, year) cell.

    Either ``deaths`` and ``exposure`` are both set, or ``mx`` is.
    """

    country: str
    sex: str
    age: int
    year: int
    deaths: Optional[float] = None
    exposure: Optional[float] = None
    mx: Optional[float] = None


@dataclass(eq=False)
class RawTable:
    """Observation rows as typed columns, one entry per row.

    ``country`` indexes ``countries`` and ``sex`` indexes SEXES.  A row
    carries either ``mx`` or ``deaths`` and ``exposure``; a value it
    does not carry is NaN, since every carried value is finite.
    ``table[i]`` is row i as a RawSeries.
    """

    countries: tuple
    country: np.ndarray
    sex: np.ndarray
    age: np.ndarray
    year: np.ndarray
    mx: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray

    def __len__(self):
        return self.age.size

    def __getitem__(self, i):
        carried = {name: float(getattr(self, name)[i]) for name in _VALUES}
        return RawSeries(country=self.countries[self.country[i]],
                         sex=SEXES[self.sex[i]], age=int(self.age[i]),
                         year=int(self.year[i]),
                         **{name: None if math.isnan(v) else v
                            for name, v in carried.items()})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def from_rows(cls, rows):
        """Table of RawSeries rows; a row no pool could use raises DataError."""
        codes = {}
        columns = []
        for r in rows:
            _check_series(r)
            columns.append((codes.setdefault(r.country, len(codes)),
                            SEXES.index(r.sex), r.age, r.year,
                            *(math.nan if v is None else v
                              for v in (r.mx, r.deaths, r.exposure))))
        return _table(tuple(codes), zip(*columns) if columns else [()] * 7)


def _check_series(r):
    from operator import index

    if r.mx is None and (r.deaths is None or r.exposure is None):
        raise DataError(f"row {r} carries neither mx nor deaths/exposure")
    carried = [v for v in (r.mx, r.deaths, r.exposure) if v is not None]
    if not all(math.isfinite(v) for v in carried):
        raise DataError(f"non-finite count or rate in row {r}")
    if any(v < 0 for v in carried):
        raise DataError(f"negative count or rate in row {r}")
    if r.sex not in SEXES:
        raise DataError(f"sex must be f or m in row {r}")
    for name in ("age", "year"):
        try:
            index(getattr(r, name))
        except TypeError:
            raise DataError(f"{name} must be an integer in row {r}") from None
    if r.age < 0:
        raise DataError(f"negative age in row {r}")


def _table(countries, columns):
    """RawTable from (country, sex, age, year, mx, deaths, exposure) columns."""
    country, sex, age, year, *values = columns
    return RawTable(countries, np.asarray(country, dtype=np.int64),
                    np.asarray(sex, dtype=np.int8),
                    np.asarray(age, dtype=np.int64),
                    np.asarray(year, dtype=np.int64),
                    *(np.asarray(v, dtype=float) for v in values))


@dataclass
class MortalityTensor:
    """Dense logit-qx tensor (S, A, C, T) plus the (C, T) observation mask.

    The year axis is a dense integer range; mask is true exactly where a
    complete both-sex schedule exists.  Unmasked cells may hold NaN.
    """

    values: np.ndarray
    mask: np.ndarray
    countries: tuple
    years: np.ndarray
    ages: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    def year_index(self, year):
        idx = int(year) - int(self.years[0])
        if idx < 0 or idx >= self.years.size:
            raise IndexError(f"year {year} outside tensor range")
        return idx

    def country_index(self, country):
        try:
            return self.countries.index(country)
        except ValueError:
            raise IndexError(f"unknown country {country!r}") from None


def mx_to_qx(mx):
    """Central rate to death probability under constant hazard in the year."""
    mx = np.asarray(mx, dtype=float)
    out = mx / (1.0 + mx / 2.0)
    return out if out.ndim else float(out)


def clamp_qx(qx):
    return np.clip(qx, QX_EPS, 1.0 - QX_EPS)


def pool_and_convert(rows, n_ages=None):
    """Pool rows by (country, year) and convert to logit probabilities.

    Parameters
    ----------
    rows : RawTable, or an iterable of RawSeries
    n_ages : int, optional
        Top of the age grid.  Defaults to the highest observed age plus
        one, capped at 110.  Higher ages are dropped; a year left with no
        row below the top raises MissingDataError.

    Returns
    -------
    MortalityTensor
        Countries are the sorted names that hold a pooled rate, and years
        run densely from the first to the last year holding one.  The
        mask is true where a schedule is finite for both sexes at every
        age.

    Notes
    -----
    Count input pools as sum(deaths) / sum(exposure); rate input pools as
    the unweighted mean of mx.  Sums run in row order.  qx = mx / (1 +
    mx/2), clamped away from {0, 1} before the logit.
    """
    table = rows if isinstance(rows, RawTable) else RawTable.from_rows(rows)
    if not len(table):
        raise MissingDataError("no rows supplied")
    if n_ages is None:
        n_ages = min(int(table.age.max()) + 1, MAX_AGES)
    ages = np.arange(n_ages)

    years, year_of_row = np.unique(table.year, return_inverse=True)
    keep = table.age < n_ages

    # one cell per (year, country) in year order, countries by name within
    n_countries = len(table.countries)
    by_name = sorted(range(n_countries), key=table.countries.__getitem__)
    rank = np.argsort(by_name)
    cells, cell_of_row = np.unique(
        year_of_row[keep] * n_countries + rank[table.country[keep]],
        return_inverse=True)
    slot = (cell_of_row * 2 + table.sex[keep]) * n_ages + table.age[keep]
    rate = ~np.isnan(table.mx[keep])

    def total(rows, weights=None):
        out = np.bincount(slot[rows], weights=weights,
                          minlength=cells.size * 2 * n_ages)
        return out.reshape(cells.size, 2, n_ages)

    mx_sum = total(rate, table.mx[keep][rate])
    mx_cnt = total(rate)
    deaths = total(~rate, table.deaths[keep][~rate])
    exposure = total(~rate, table.exposure[keep][~rate])
    have_counts = total(~rate) > 0

    # the first failure in (year, country) order raises, as a loop would
    cell_year = cells // n_countries
    mixed = (have_counts & (mx_cnt > 0)).any(axis=(1, 2))
    degenerate = (have_counts & (exposure == 0)).any(axis=(1, 2))
    empty = np.setdiff1d(np.arange(years.size), cell_year)
    bad = np.flatnonzero(mixed | degenerate)
    if empty.size and (not bad.size or empty[0] < cell_year[bad[0]]):
        raise MissingDataError(f"year {years[empty[0]]} has no rows below "
                               f"age {n_ages}")
    if bad.size:
        p = bad[0]
        country = table.countries[by_name[cells[p] % n_countries]]
        where = f"{country} year {years[cell_year[p]]}"
        if mixed[p]:
            raise DataError(
                f"{where}: cell mixes mx and deaths/exposure rows")
        raise DegenerateExposureError(f"{where}: zero total exposure")

    with np.errstate(invalid="ignore", divide="ignore"):
        mx = np.where(have_counts,
                      deaths / np.where(exposure > 0, exposure, 1.0), np.nan)
        mx = np.where(mx_cnt > 0, mx_sum / np.where(mx_cnt > 0, mx_cnt, 1.0),
                      mx)
    finite = np.isfinite(mx)
    with np.errstate(invalid="ignore"):
        lq = logit(np.where(finite, clamp_qx(mx_to_qx(mx)), np.nan))

    # cells whose rates all overflowed to inf write nothing, and a pool
    # whose cells all overflowed leaves no tensor
    kept = np.flatnonzero(finite.any(axis=(1, 2)))
    if not kept.size:
        raise MissingDataError("no schedules supplied")
    names, column = np.unique(cells[kept] % n_countries, return_inverse=True)
    held = years[cell_year[kept]]  # in year order, as the cells are
    first, last = int(held[0]), int(held[-1])
    values = np.full((2, n_ages, names.size, last - first + 1), np.nan)
    mask = np.zeros((names.size, last - first + 1), dtype=bool)
    block = lq[kept].transpose(1, 2, 0)
    values[:, :, column, held - first] = block
    mask[column, held - first] = np.isfinite(block).all(axis=(0, 1))
    return MortalityTensor(
        values=values, mask=mask,
        countries=tuple(table.countries[by_name[r]] for r in names.tolist()),
        years=np.arange(first, last + 1), ages=ages)


def truncate_tensor(tensor, origin):
    """Tensor restricted to years at or before the origin."""
    keep = tensor.years <= int(origin)
    if not np.any(keep):
        raise MissingDataError(f"no tensor years at or before {origin}")
    return MortalityTensor(values=tensor.values[:, :, :, keep],
                           mask=tensor.mask[:, keep],
                           countries=tensor.countries,
                           years=tensor.years[keep],
                           ages=tensor.ages)


def drop_country(tensor, country):
    """Tensor with one country's column removed."""
    c = tensor.country_index(country)
    keep = np.arange(len(tensor.countries)) != c
    return MortalityTensor(values=tensor.values[:, :, keep],
                           mask=tensor.mask[keep],
                           countries=tensor.countries[:c] + tensor.countries[c + 1:],
                           years=tensor.years,
                           ages=tensor.ages)


def tensor_from_csv(path):
    return pool_and_convert(read_csv(path))


def read_csv(path):
    """Read observation rows from either accepted CSV layout.

    Layouts (UTF-8, header required):
        country,sex,age,year,deaths,exposure
        country,sex,age,year,mx
    Header names are matched with surrounding spaces stripped.  Sex is
    coded f/m, ages are non-negative integers, and every mx, deaths and
    exposure value is finite and non-negative.  Parse failures raise
    CsvFormatError carrying the 1-based line number.

    The header is read by the csv module.  The body is read by numpy's C
    tokenizer in chunks of TOKENIZER_ROWS rows, each put through the
    bulk checks of _BlockParser.checked.  That path only accepts less:
    any exception, warning, failed check or empty body sends the whole
    file to the row parser (csv.reader in blocks of BLOCK_ROWS rows,
    parsed one record at a time), which defines what is valid and names
    the line of the first bad row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise CsvFormatError(str(exc), line=1) from exc
        if header is None:
            raise CsvFormatError("empty file", line=1)
        cols = [c.strip() for c in header]
        base = set(_KEYS)
        if not base.issubset(cols):
            raise CsvFormatError(
                f"missing required columns {sorted(base - set(cols))}", line=1)
        has_mx = "mx" in cols
        has_counts = "deaths" in cols and "exposure" in cols
        if has_mx == has_counts:
            raise CsvFormatError(
                "need either an mx column or deaths+exposure columns", line=1)
        values = ("mx",) if has_mx else ("deaths", "exposure")
        table = _tokenized(fh, _BlockParser(cols, values))
        if table is not None:
            return table
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        parser = _BlockParser(cols, values)
        try:
            while True:
                first = reader.line_num
                block = list(islice(reader, BLOCK_ROWS))
                if not block:
                    break
                parser.add(block, first, reader.line_num)
        except csv.Error as exc:
            raise CsvFormatError(str(exc), line=reader.line_num) from exc
    if not parser.blocks:
        raise CsvFormatError("no data rows", line=1)
    return parser.table()


def _tokenized(fh, parser):
    """The rows after the header read by numpy's C tokenizer, or None.

    Each chunk of TOKENIZER_ROWS rows goes through the bulk checks and
    code maps of parser.checked, so a table returned here equals the one
    the row parser would build.  None sends the file to the row parser:
    the tokenizer raised or warned or a check failed, the body holds no
    row or a character in _UNTOKENIZABLE, or a row could hold a field
    longer than the csv module's field limit.
    """
    lines = longest = 0

    def batches():
        nonlocal lines, longest
        while batch := fh.readlines(_BATCH_CHARS):
            text = "".join(batch)
            if any(c in text for c in _UNTOKENIZABLE):
                raise ValueError("a character the tokenizer reads differently")
            lines += len(batch)
            longest = max(longest, max(map(len, batch)))
            yield batch

    body = chain.from_iterable(batches())
    dtype = [("country", object), ("sex", object), ("age", np.int64),
             ("year", np.int64)] + [(name, float) for name in parser.values]
    rows = 0
    try:
        with warnings.catch_warnings():
            # a warning is a form the tokenizer reads on its own terms
            # (numpy 1.23-1.26 read "1.0" as the integer 1 with a
            # DeprecationWarning), except the two that loadtxt gives for
            # a blank line, which the row parser skips too, and for the
            # empty read after a full last chunk
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", r"Input line \d+ contained no "
                                    "data", UserWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            while True:
                chunk = np.loadtxt(body, dtype=dtype, comments=None,
                                   delimiter=",", quotechar='"',
                                   usecols=parser.index,
                                   max_rows=TOKENIZER_ROWS, ndmin=1)
                if not chunk.size:
                    break
                # copies: a view of the chunk would keep its strings alive
                columns = parser.checked(
                    chunk["country"].tolist(), chunk["sex"].tolist(),
                    chunk["age"].copy(), chunk["year"].copy(),
                    [chunk[name].copy() for name in parser.values])
                if columns is None:
                    return None
                parser.blocks.append(columns)
                rows += chunk.size
                if chunk.size < TOKENIZER_ROWS:
                    break
    except Exception:
        # the row parser reads the file again and raises what is wrong
        # with it, at its line
        return None
    # a row spans at most lines - rows + 1 lines, so no field is longer
    # than that many of the longest line
    if not rows or (lines - rows + 1) * longest > csv.field_size_limit():
        return None
    return parser.table()


class _BlockParser:
    """Turns csv rows, or the tokenizer's columns, into typed columns.

    add parses a block of csv rows one record at a time and raises
    CsvFormatError at the first bad row: the row parser is the
    definition of what is valid.  checked is the tokenizer's bulk check
    of a chunk of columns, a fast path that accepts less.
    """

    def __init__(self, header, values):
        self.header = header
        # a repeated column name reads its last field, as in csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        self.index = [index.get(name) for name in _KEYS + values]
        self.values = values
        self.names = {}   # country -> code
        self.codes = {}   # raw country field -> code
        self.sexes = {}   # raw sex field -> code
        self.blocks = []

    def add(self, block, first, last):
        """Parse the csv rows read on lines first+1 to last; skip blank rows."""
        if any(block):
            self.blocks.append(self._rows(block, first, last))

    def checked(self, country, sex, age, year, values):
        """Typed columns of one chunk, or None if a bulk check fails.

        country and sex hold the raw fields, age, year and values the
        parsed arrays.
        """
        for raw in dict.fromkeys(sex).keys() - self.sexes.keys():
            code = raw.strip().lower()
            if code not in SEXES:
                return None
            self.sexes[raw] = SEXES.index(code)
        for raw in dict.fromkeys(country):
            if raw not in self.codes:
                self.codes[raw] = self.names.setdefault(raw.strip(),
                                                        len(self.names))
        if (age < 0).any() or not all(np.isfinite(v).all() and (v >= 0).all()
                                      for v in values):
            return None
        n = age.size
        return (np.fromiter(map(self.codes.__getitem__, country), np.int64, n),
                np.fromiter(map(self.sexes.__getitem__, sex), np.int8, n),
                age, year, *values)

    def _rows(self, block, line, last):
        parsed = []
        for row in block:
            # a row ends as many lines on as it holds line breaks, plus one
            # (less at the end of a file that leaves a quote open)
            line = min(last, line + 1 + sum(len(_LINE_BREAK.findall(f))
                                            for f in row))
            if not row:
                continue
            # the record csv.DictReader builds: absent fields are None
            rec = dict(zip(self.header, row))
            rec.update(dict.fromkeys(self.header[len(row):]))
            try:
                parsed.append(self._record(rec))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise CsvFormatError(str(exc), line=line) from exc
        return list(zip(*parsed))

    def _record(self, rec):
        sex = rec["sex"].strip().lower()
        if sex not in SEXES:
            raise ValueError(f"sex must be f or m, got {rec['sex']!r}")
        country = rec["country"].strip()
        age, year = int(rec["age"]), int(rec["year"])
        if not 0 <= age < _INT64:
            raise ValueError("age must be a non-negative integer")
        if not -_INT64 <= year < _INT64:
            raise ValueError("year out of range")
        values = [float(rec[name]) for name in self.values]
        for name, v in zip(self.values, values):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {rec[name]!r}")
        if any(v < 0 for v in values):
            raise ValueError("mx must be non-negative" if len(values) == 1
                             else "counts must be non-negative")
        return (self.names.setdefault(country, len(self.names)),
                SEXES.index(sex), age, year, *values)

    def table(self):
        columns = [np.concatenate(c) for c in zip(*self.blocks)]
        n = columns[0].size
        carried = dict(zip(self.values, columns[4:]))
        return _table(tuple(self.names), columns[:4] + [
            carried[name] if name in carried else np.full(n, np.nan)
            for name in _VALUES])

