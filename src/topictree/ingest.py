"""Parsing and strict validation of the two CSV inputs.

The profile CSV has a header (``id,index,label,weight,year,words``; ``label``
optional, column order free) and one topic per row. The TES CSV is a bare
N x N grid, no header or labels, blanks allowed only on/below the diagonal.

Parsers return ``(value, report)`` where the report carries warnings; any
error aborts the parse by raising :class:`CsvValidationError`, whose report
locates every violation by row and column. In lenient mode a nonzero
contemporary entry or an off-unit diagonal is coerced with a warning instead.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
from bisect import bisect_right
from collections.abc import Iterator
from itertools import compress

from .model import TemporalTopicProfile, TesMatrix, TopicRecord, _Value, format_number, non_xml_char, require_int, require_str, require_type

# Profile error codes.
MISSING_HEADER = "MissingHeader"
DUPLICATE_HEADER = "DuplicateHeader"
EMPTY_PROFILE = "EmptyProfile"
EMPTY_ID = "EmptyId"
BAD_CHARACTER = "BadCharacter"
DUPLICATE_ID = "DuplicateId"
BAD_INDEX = "BadIndex"
DUPLICATE_INDEX = "DuplicateIndex"
NON_CONTIGUOUS_INDEX = "NonContiguousIndex"
BAD_WEIGHT = "BadWeight"
WEIGHT_OUT_OF_RANGE = "WeightOutOfRange"
BAD_YEAR = "BadYear"
BAD_WORDS = "BadWords"
EMPTY_WORDS = "EmptyWords"

# Matrix error codes.
DIMENSION_MISMATCH = "DimensionMismatch"
BAD_NUMBER = "BadNumber"
VALUE_OUT_OF_RANGE = "ValueOutOfRange"
CONTEMPORARY_NONZERO = "ContemporaryNonzero"
DIAGONAL_NOT_ONE = "DiagonalNotOne"
BLANK_ABOVE_DIAGONAL = "BlankAboveDiagonal"

# Shared codes.
BAD_ENCODING = "BadEncoding"
BAD_CSV = "BadCsv"
ROWS_RESORTED = "RowsResorted"
BELOW_DIAGONAL_IGNORED = "BelowDiagonalIgnored"

#: Diagonal cells may deviate from 1 by at most this much before they are
#: rejected (strict) or coerced (lenient).
DIAGONAL_TOLERANCE = 1e-9

#: Distinct cell texts `parse_tes` keeps checked; past this it starts afresh.
_MAX_CHECKED = 1024

_PLAIN_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_QUOTE_CHARS = "'\"`"

_REQUIRED_COLUMNS = ("id", "index", "weight", "year", "words")


class ValidationIssue(_Value):
    """One located problem; ``column`` is a field name (profile) or 1-based position (matrix)."""

    def __init__(self, row: int | None, column: str | int | None, code: str, message: str) -> None:
        if row is not None:
            require_int(row, "issue row")
        if column is not None and not isinstance(column, str):
            require_int(column, "issue column")
        self._store(row, column, require_str(code, "issue code"), require_str(message, "issue message"))

    def format(self) -> str:
        where = []
        if self.row is not None:
            where.append(f"row {self.row}")
        if self.column is not None:
            where.append(f"column {self.column}")
        location = ", ".join(where) or "file"
        return f"{location}: {self.code}: {self.message}"


class ValidationReport(_Value):
    """The issues of one parse, filled in as it finds them, so unlike the other values it is mutable."""

    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, errors: list[ValidationIssue] | None = None, warnings: list[ValidationIssue] | None = None) -> None:
        errors = [] if errors is None else errors
        warnings = [] if warnings is None else warnings
        for name, issues in (("errors", errors), ("warnings", warnings)):
            require_type(issues, list, name)
            for issue in issues:
                require_type(issue, ValidationIssue, f"{name} entry")
        self._store(errors, warnings)

    def error(self, row: int | None, column: str | int | None, code: str, message: str) -> None:
        self.errors.append(ValidationIssue(row, column, code, message))

    def warning(self, row: int | None, column: str | int | None, code: str, message: str) -> None:
        self.warnings.append(ValidationIssue(row, column, code, message))

    @property
    def ok(self) -> bool:
        return not self.errors

    def format_lines(self) -> list[str]:
        lines = [f"error: {issue.format()}" for issue in self.errors]
        lines.extend(f"warning: {issue.format()}" for issue in self.warnings)
        return lines


class CsvValidationError(ValueError):
    """Raised when a CSV input violates its contract; carries the full report."""

    def __init__(self, report: ValidationReport):
        require_type(report, ValidationReport, "report")
        self.report = report
        summary = "; ".join(issue.format() for issue in report.errors) or "invalid input"
        super().__init__(summary)


#: What the parsers read: the bytes of a CSV, or a binary file open for reading.
_CSV_INPUT = (bytes, bytearray, io.BufferedIOBase, io.RawIOBase)


def _lines(data: bytes | bytearray | io.BufferedIOBase | io.RawIOBase) -> Iterator[str]:
    """The ``\\n``-ended lines of `data`, each decoded as it is read.

    A BOM at the start is dropped, and byte offsets count from after it.
    Raises :class:`CsvValidationError` with one ``BadEncoding`` issue at
    the first line that is not UTF-8.
    """
    if isinstance(data, (bytes, bytearray)):
        stream = io.BytesIO(data)
    elif isinstance(data, io.RawIOBase):
        stream = io.BufferedReader(data)  # a raw file's readline reads one byte per call
    else:
        stream = data
    offset = 0  # bytes before the current line
    try:
        for number, line in enumerate(stream, 1):
            if number == 1:
                line = line.removeprefix(codecs.BOM_UTF8)
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                report = ValidationReport()
                report.error(number, None, BAD_ENCODING, f"input is not valid UTF-8 at byte {offset + exc.start}")
                raise CsvValidationError(report) from None
            offset += len(line)
            yield text
    finally:
        if isinstance(data, io.RawIOBase):
            stream.detach()  # so that closing the buffer cannot close the caller's file


def _csv_rows(data: bytes | bytearray | io.BufferedIOBase | io.RawIOBase) -> Iterator[list[str]]:
    """The CSV rows of `data`, read and decoded one line at a time.

    `data` is the bytes of a CSV or a binary file, read from where it stands
    to its end without seeking, so a pipe works too; the caller closes it.
    Lines end only at ``\\n``. Empty rows are held back until a non-empty
    row follows, so trailing ones are dropped. Raises
    :class:`CsvValidationError` with one issue: ``BadEncoding`` at the first
    line that is not UTF-8, even past an unreadable row, else ``BadCsv`` at
    the first unreadable row.
    """
    lines = _lines(data)
    reader = csv.reader(lines)
    empty = 0
    try:
        for row in reader:
            if not row:
                empty += 1
                continue
            for _ in range(empty):
                yield []
            empty = 0
            yield row
    except csv.Error as exc:
        report = ValidationReport()
        report.error(reader.line_num, None, BAD_CSV, f"unreadable CSV: {exc}")
    else:
        return
    for _ in lines:  # a bad byte further on is the issue reported instead
        pass
    raise CsvValidationError(report)


def _parse_decimal(cell: str) -> float | None:
    """Plain decimal number or None; scientific notation, inf and nan are rejected."""
    if _PLAIN_DECIMAL.fullmatch(cell):
        return float(cell)
    return None


def _parse_int(cell: str) -> int | None:
    """Plain integer or None; None also for one longer than ``int()`` accepts."""
    if _PLAIN_INT.fullmatch(cell):
        try:
            return int(cell)
        except ValueError:
            return None
    return None


def _parse_words(cell: str) -> tuple[str, ...] | None:
    """Parse a bracketed, quoted term list like ``['alpha', 'beta']``."""
    cell = cell.strip()
    if not (cell.startswith("[") and cell.endswith("]")):
        return None
    inner = cell[1:-1].strip()
    if not inner:
        return ()
    words = []
    for part in inner.split(","):
        word = part.strip().strip(_QUOTE_CHARS)
        if not word:
            return None
        words.append(word)
    return tuple(words)


def parse_profile(data: bytes | bytearray | io.BufferedIOBase | io.RawIOBase) -> tuple[TemporalTopicProfile, ValidationReport]:
    """Parse a temporal topic profile CSV, given as bytes or an open binary file.

    Rows are checked as they are read. They may arrive in any order; they
    are re-sorted ascending by (year, index), with a warning when re-sorting
    occurred. Raises :class:`CsvValidationError` if any row violates the
    profile contract.
    """
    require_type(data, _CSV_INPUT, "data")
    report = ValidationReport()
    rows = _csv_rows(data)
    header = next(rows, None)
    if header is None:
        report.error(1, None, MISSING_HEADER, "file is empty, expected a header row")
        raise CsvValidationError(report)

    header = [cell.strip().lower() for cell in header]
    columns: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in columns:
            if name in _REQUIRED_COLUMNS or name == "label":
                report.error(1, name, DUPLICATE_HEADER, f"column {name!r} appears more than once")
        else:
            columns[name] = pos
    for name in _REQUIRED_COLUMNS:
        if name not in columns:
            report.error(1, name, MISSING_HEADER, f"required column {name!r} is missing")
    if not report.ok:
        for _ in rows:  # a bad byte or an unreadable row further on is the issue reported instead
            pass
        raise CsvValidationError(report)

    def cell(row: list[str], name: str) -> str:
        pos = columns.get(name, -1)
        if pos < 0 or pos >= len(row):
            return ""
        return row[pos].strip()

    records: list[tuple[int, TopicRecord]] = []  # (csv row number, record)
    ids_seen: dict[str, int] = {}
    indices_seen: dict[int, int] = {}
    rownum = 1
    for rownum, row in enumerate(rows, 2):
        errors_before = len(report.errors)
        topic_id = cell(row, "id")
        if not topic_id:
            report.error(rownum, "id", EMPTY_ID, "id must be non-empty")
        elif topic_id in ids_seen:
            report.error(
                rownum, "id", DUPLICATE_ID, f"id {topic_id!r} already used in row {ids_seen[topic_id]}"
            )
        else:
            ids_seen[topic_id] = rownum

        index = _parse_int(cell(row, "index"))
        if index is None or index < 0:
            report.error(
                rownum, "index", BAD_INDEX, f"index must be a non-negative integer, got {cell(row, 'index')!r}"
            )
        elif index in indices_seen:
            report.error(
                rownum, "index", DUPLICATE_INDEX, f"index {index} already used in row {indices_seen[index]}"
            )
        else:
            indices_seen[index] = rownum

        weight = _parse_decimal(cell(row, "weight"))
        if weight is None:
            report.error(
                rownum, "weight", BAD_WEIGHT, f"weight must be a plain decimal, got {cell(row, 'weight')!r}"
            )
        elif not 0.0 <= weight <= 1.0:
            report.error(rownum, "weight", WEIGHT_OUT_OF_RANGE, f"weight must be in [0, 1], got {weight}")

        year = _parse_int(cell(row, "year"))
        if year is None:
            report.error(rownum, "year", BAD_YEAR, f"year must be an integer, got {cell(row, 'year')!r}")

        words = _parse_words(cell(row, "words"))
        if words is None:
            report.error(
                rownum, "words", BAD_WORDS, "words must be a bracketed, quoted, comma-separated list"
            )
        elif not words:
            report.error(rownum, "words", EMPTY_WORDS, "words must contain at least one term")

        label = cell(row, "label") or None
        for name, text in (("id", topic_id), ("label", label or "")):
            if (char := non_xml_char(text)) is not None:
                report.error(rownum, name, BAD_CHARACTER, f"{name} holds U+{ord(char):04X}, which XML cannot carry")
        if len(report.errors) == errors_before:
            records.append(
                (rownum, TopicRecord(id=topic_id, index=index, weight=weight, year=year, words=words, label=label))
            )

    if rownum == 1:
        report.error(2, None, EMPTY_PROFILE, "profile must contain at least one topic")
    if report.ok:
        expected = set(range(len(records)))
        actual = {record.index for _, record in records}
        if actual != expected:
            missing = sorted(expected - actual)
            report.error(
                None,
                "index",
                NON_CONTIGUOUS_INDEX,
                f"indices must be exactly 0..{len(records) - 1}, missing {missing}",
            )
    if not report.ok:
        raise CsvValidationError(report)

    ordered = sorted(records, key=lambda item: (item[1].year, item[1].index))
    if [rownum for rownum, _ in ordered] != [rownum for rownum, _ in records]:
        first = next(
            rownum for (rownum, _), (sorted_rownum, _) in zip(records, ordered) if rownum != sorted_rownum
        )
        report.warning(first, None, ROWS_RESORTED, "rows were re-sorted ascending by (year, index)")

    return TemporalTopicProfile(topics=tuple(record for _, record in ordered)), report


def parse_tes(
    data: bytes | bytearray | io.BufferedIOBase | io.RawIOBase, profile: TemporalTopicProfile, lenient: bool = False
) -> tuple[TesMatrix, ValidationReport]:
    """Parse a TES matrix CSV, given as bytes or an open binary file,
    against the profile's size and year structure.

    Each row is walked once as three ranges. The cells below the diagonal
    are ignored, with a warning for each one that is not blank; the diagonal
    cell must be blank or 1; the cells above it must hold a TES in [0, 1],
    and 0 between contemporary topics. Only the nonzero TES are stored (see
    :class:`TesMatrix`). The cells below the diagonal are joined, and walked
    only when the join is not blank. Above it, each distinct text is checked
    once while it is cached, and only the cells with an issue or a nonzero
    TES are visited, so issues come row by row, columns ascending. Rows are
    read, decoded and checked one at a time, so from a file the working
    memory is one row plus the nonzero TES kept. A wrong row count, or else
    any row of the wrong length, is reported alone. Raises :class:`CsvValidationError` on
    any violation that lenient mode cannot coerce.
    """
    require_type(data, _CSV_INPUT, "data")
    require_type(profile, TemporalTopicProfile, "profile")
    n = len(profile)
    years = [topic.year for topic in profile.topics]
    columns: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    # A matrix repeats few cell texts (mostly "0"): check each once, and store
    # one float object per distinct text. The cache starts afresh once it
    # holds more than _MAX_CHECKED texts, so its size stays bounded.
    checked: dict[str, float | tuple[str, str]] = {}
    report = ValidationReport()
    shape = ValidationReport()  # wrong row lengths, raised without the cell issues
    rows = 0
    for i, row in enumerate(_csv_rows(data)):
        rows = rownum = i + 1
        if i < n and len(row) != n:
            shape.error(rownum, None, DIMENSION_MISMATCH, f"expected {n} columns, found {len(row)}")
        if i >= n or not shape.ok:
            continue
        if "".join(row[:i]).strip():
            for j in range(i):
                if row[j].strip():
                    report.warning(rownum, j + 1, BELOW_DIAGONAL_IGNORED, "value below the diagonal is ignored")
        cell = row[i].strip()  # the diagonal: its column number is rownum
        value = _parse_decimal(cell) if cell else 1.0
        if value is None:
            report.error(rownum, rownum, BAD_NUMBER, f"not a plain decimal: {cell!r}")
        elif abs(value - 1.0) > DIAGONAL_TOLERANCE:
            if lenient:
                report.warning(rownum, rownum, DIAGONAL_NOT_ONE, f"diagonal entry {value} coerced to 1")
            else:
                report.error(rownum, rownum, DIAGONAL_NOT_ONE, f"diagonal entry must be 1, got {value}")
        later = bisect_right(years, years[i])  # the first position of a later year
        if len(checked) > _MAX_CHECKED:
            checked.clear()
        for text in set(row[i + 1 :]).difference(checked):
            checked[text] = _check_tes(text.strip())
        # Only an issue or a nonzero TES is truthy: zero cells are skipped in C.
        for j in compress(range(i + 1, n), map(checked.get, row[i + 1 :])):
            value = checked[row[j]]
            if isinstance(value, tuple):
                report.error(rownum, j + 1, *value)
            elif j >= later:
                columns[j].append((i, value))
            elif lenient:  # a nonzero TES between contemporary topics
                report.warning(rownum, j + 1, CONTEMPORARY_NONZERO, f"contemporary TES {value} coerced to 0")
            else:
                report.error(
                    rownum,
                    j + 1,
                    CONTEMPORARY_NONZERO,
                    f"TES between contemporary topics (year {years[i]}) must be 0, got {value}",
                )

    if rows != n:
        shape = ValidationReport()
        shape.error(min(rows, n) + 1, None, DIMENSION_MISMATCH, f"expected {n} rows, found {rows}")
    if not shape.ok:
        raise CsvValidationError(shape)
    if not report.ok:
        raise CsvValidationError(report)
    return TesMatrix(columns=tuple(tuple(column) for column in columns)), report


def _check_tes(cell: str) -> float | tuple[str, str]:
    """The TES a stripped cell above the diagonal holds, or the code and message of its issue."""
    if not cell:
        return BLANK_ABOVE_DIAGONAL, "blank cell above the diagonal"
    value = _parse_decimal(cell)
    if value is None:
        return BAD_NUMBER, f"not a plain decimal: {cell!r}"
    if not 0.0 <= value <= 1.0:
        return VALUE_OUT_OF_RANGE, f"TES must be in [0, 1], got {value}"
    return value


def profile_to_csv(profile: TemporalTopicProfile) -> bytes:
    """Serialize a profile back to its CSV form (canonical header order).

    The form has no escapes: an id, label or words that :func:`parse_profile` would read back differently raise ``ValueError``."""
    require_type(profile, TemporalTopicProfile, "profile")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "index", "label", "weight", "year", "words"])
    for topic in profile.topics:
        words = "[" + ", ".join(f"'{word}'" for word in topic.words) + "]"
        label = topic.label or ""
        read = {"id": topic.id.strip(), "label": label.strip() or None, "words": _parse_words(words)}
        for name, value in read.items():
            if value != getattr(topic, name):
                raise ValueError(f"topic {topic.id!r}: {name} {getattr(topic, name)!r} would be read back as {value!r}")
        writer.writerow([topic.id, topic.index, label, format_number(topic.weight), topic.year, words])
    return out.getvalue().encode("utf-8")


def tes_to_csv(matrix: TesMatrix) -> bytes:
    """Serialize a matrix back to CSV: blanks below the diagonal, 1 on it, TES above (0 where unlisted)."""
    require_type(matrix, TesMatrix, "matrix")
    n = matrix.n
    listed: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for j, column in enumerate(matrix.columns):
        for i, tes in column:
            listed[i].append((j, tes))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i, cells in enumerate(listed):
        row = [""] * i + ["1"] + ["0"] * (n - 1 - i)
        for j, tes in cells:
            row[j] = format_number(tes)
        writer.writerow(row)
    return out.getvalue().encode("utf-8")
