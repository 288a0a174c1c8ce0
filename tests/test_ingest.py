import codecs
import hashlib
import random
import tracemalloc

import pytest

from helpers import random_instance, read_rows_whole_text, rows_or_issues
from topictree import ingest
from topictree.ingest import (
    CsvValidationError,
    ValidationIssue,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
)
from topictree.model import TemporalTopicProfile, TesMatrix, TopicRecord

PROFILE_HEADER = b"id,index,label,weight,year,words\n"


def profile_bytes(*rows: str) -> bytes:
    return PROFILE_HEADER + "".join(f"{row}\n" for row in rows).encode()


def small_profile() -> bytes:
    return profile_bytes(
        "x,0,X,0.5,2001,\"['a', 'b']\"",
        "y,1,Y,0.25,2002,\"['c']\"",
    )


def error_codes(exc: CsvValidationError) -> set[str]:
    return {issue.code for issue in exc.report.errors}


class TestParseProfile:
    def test_fixture(self, profile_csv):
        profile, report = parse_profile(profile_csv)
        assert len(profile) == 11
        assert profile.distinct_years == (2001, 2002, 2003, 2004, 2005)
        f = profile.topic(5)
        assert (f.label, f.weight, f.year) == ("F", 0.8, 2003)
        assert f.words[0] == "interface"
        assert not report.errors and not report.warnings

    def test_header_only_is_empty_profile(self):
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(PROFILE_HEADER)
        assert error_codes(exc.value) == {ingest.EMPTY_PROFILE}

    def test_weight_above_one(self):
        data = profile_bytes("x,0,X,1.2,2001,\"['a']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        (issue,) = exc.value.report.errors
        assert issue.code == ingest.WEIGHT_OUT_OF_RANGE
        assert issue.row == 2 and issue.column == "weight"

    def test_missing_header_column(self):
        data = b"id,index,label,weight,year\nx,0,X,0.5,2001\n"
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.MISSING_HEADER}

    def test_duplicate_index(self):
        data = profile_bytes("x,0,X,0.5,2001,\"['a']\"", "y,0,Y,0.5,2002,\"['b']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.DUPLICATE_INDEX}

    def test_non_contiguous_index(self):
        data = profile_bytes("x,0,X,0.5,2001,\"['a']\"", "y,2,Y,0.5,2002,\"['b']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.NON_CONTIGUOUS_INDEX}

    def test_bad_year(self):
        data = profile_bytes("x,0,X,0.5,hello,\"['a']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.BAD_YEAR}

    def test_empty_words(self):
        data = profile_bytes("x,0,X,0.5,2001,[]")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.EMPTY_WORDS}

    def test_duplicate_id(self):
        data = profile_bytes("x,0,X,0.5,2001,\"['a']\"", "x,1,Y,0.5,2002,\"['b']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.DUPLICATE_ID}

    def test_multiple_errors_reported_together(self):
        data = profile_bytes("x,0,X,1.5,bad,\"['a']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.WEIGHT_OUT_OF_RANGE, ingest.BAD_YEAR}

    def test_label_column_optional(self):
        data = b"id,index,weight,year,words\nx,0,0.5,2001,\"['a']\"\n"
        profile, _ = parse_profile(data)
        assert profile.topic(0).label is None
        assert profile.topic(0).display_label == "x"

    def test_column_order_free(self):
        data = b"words,year,weight,index,id\n\"['a']\",2001,0.5,0,x\n"
        profile, _ = parse_profile(data)
        assert profile.topic(0).id == "x"
        assert profile.topic(0).words == ("a",)

    def test_rows_resorted_with_warning(self):
        shuffled = profile_bytes(
            "y,1,Y,0.25,2002,\"['c']\"",
            "x,0,X,0.5,2001,\"['a', 'b']\"",
        )
        profile, report = parse_profile(shuffled)
        assert [t.id for t in profile.topics] == ["x", "y"]
        assert [w.code for w in report.warnings] == [ingest.ROWS_RESORTED]
        # the warning names the first row out of place: the 2003 topic, in row 3
        _, report = parse_profile(
            profile_bytes(
                "x,0,X,0.5,2001,\"['a']\"",
                "z,2,Z,0.75,2003,\"['d']\"",
                "y,1,Y,0.25,2002,\"['c']\"",
            )
        )
        assert [(w.code, w.row) for w in report.warnings] == [(ingest.ROWS_RESORTED, 3)]

    def test_row_permutations_yield_identical_profile(self):
        import itertools

        rows = [
            "x,0,X,0.5,2001,\"['a']\"",
            "y,1,Y,0.25,2002,\"['c']\"",
            "z,2,,0.75,2001,\"['d']\"",
        ]
        baseline = None
        for perm in itertools.permutations(rows):
            profile, _ = parse_profile(profile_bytes(*perm))
            if baseline is None:
                baseline = profile
            assert profile == baseline

    def test_scientific_notation_rejected(self):
        data = profile_bytes("x,0,X,1e-1,2001,\"['a']\"")
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(data)
        assert error_codes(exc.value) == {ingest.BAD_WEIGHT}

    def test_bad_encoding(self):
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(b"\xff\xfe\x00 garbage")
        assert error_codes(exc.value) == {ingest.BAD_ENCODING}

    def test_utf8_bom_tolerated(self):
        profile, _ = parse_profile(b"\xef\xbb\xbf" + small_profile())
        assert len(profile) == 2

    def test_backtick_quoted_words(self):
        data = profile_bytes("x,0,X,0.5,2001,\"[`alpha', `beta']\"")
        profile, _ = parse_profile(data)
        assert profile.topic(0).words == ("alpha", "beta")

    def test_round_trip(self, profile_csv):
        profile, _ = parse_profile(profile_csv)
        again, report = parse_profile(profile_to_csv(profile))
        assert again == profile
        assert not report.warnings

    def test_random_profiles_round_trip(self):
        rng = random.Random(1303)
        for _ in range(300):
            profile = random_instance(rng)[0]
            assert parse_profile(profile_to_csv(profile))[0] == profile

    @pytest.mark.parametrize(
        "field, kw",
        [
            ("words", {"words": ("a,b",)}),
            ("words", {"words": ("",)}),
            ("words", {"words": ("'a",)}),
            ("words", {"words": ("a`",)}),
            ("id", {"id": " t0"}),
            ("label", {"label": " L"}),
            ("label", {"label": ""}),
        ],
    )
    def test_unreadable_text_is_refused(self, field, kw):
        record = TopicRecord(**{"id": "t0", "index": 0, "weight": 0.5, "year": 2001, "words": ("w",), **kw})
        with pytest.raises(ValueError, match=rf"^topic {record.id!r}: {field} "):
            profile_to_csv(TemporalTopicProfile((record,)))


class TestParseTes:
    def test_fixture(self, tes_csv, fixture_profile):
        matrix, report = parse_tes(tes_csv, fixture_profile)
        assert matrix.n == 11
        a, b, d, e, f = 0, 1, 3, 4, 5
        assert matrix.columns[f] == ((a, 0.9), (1, 0.1), (2, 0.1), (d, 0.9), (e, 0.2))
        assert matrix.columns[d] == ((a, 0.1), (b, 0.5))
        assert [len(column) for column in matrix.columns] == [0, 0, 2, 2, 2, 5, 5, 7, 7, 9, 9]
        assert not report.errors and not report.warnings

    def test_dimension_mismatch_row_count(self, tes_csv, fixture_profile):
        rows = tes_csv.splitlines()[:-1]
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(b"\n".join(rows), fixture_profile)
        assert error_codes(exc.value) == {ingest.DIMENSION_MISMATCH}

    def test_dimension_mismatch_column_count(self, fixture_profile, tes_csv):
        rows = tes_csv.decode().splitlines()
        rows[0] += ",0.5"
        with pytest.raises(CsvValidationError) as exc:
            parse_tes("\n".join(rows).encode(), fixture_profile)
        assert error_codes(exc.value) == {ingest.DIMENSION_MISMATCH}

    def test_value_out_of_range(self, fixture_profile, tes_csv):
        corrupted = tes_csv.replace(b"0.7", b"1.7", 1)
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(corrupted, fixture_profile)
        assert error_codes(exc.value) == {ingest.VALUE_OUT_OF_RANGE}

    def test_contemporary_nonzero_strict(self, fixture_profile, tes_csv):
        # A and B share year 2001; their entry is row 1 column 2
        corrupted = tes_csv.replace(b"1,0,", b"1,0.3,", 1)
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(corrupted, fixture_profile)
        (issue,) = exc.value.report.errors
        assert issue.code == ingest.CONTEMPORARY_NONZERO
        assert (issue.row, issue.column) == (1, 2)

    def test_contemporary_nonzero_lenient_coerces(self, fixture_profile, fixture_matrix, tes_csv):
        corrupted = tes_csv.replace(b"1,0,", b"1,0.3,", 1)
        matrix, report = parse_tes(corrupted, fixture_profile, lenient=True)
        assert matrix.columns[1] == ()
        assert matrix == fixture_matrix
        assert [w.code for w in report.warnings] == [ingest.CONTEMPORARY_NONZERO]

    def test_diagonal_not_one_strict(self, fixture_profile, tes_csv):
        corrupted = tes_csv.replace(b",,1,0,0,", b",,0.9,0,0,", 1)
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(corrupted, fixture_profile)
        assert error_codes(exc.value) == {ingest.DIAGONAL_NOT_ONE}

    def test_diagonal_not_one_lenient_coerces(self, fixture_profile, fixture_matrix, tes_csv):
        corrupted = tes_csv.replace(b",,1,0,0,", b",,0.9,0,0,", 1)
        matrix, report = parse_tes(corrupted, fixture_profile, lenient=True)
        assert matrix == fixture_matrix
        assert [w.code for w in report.warnings] == [ingest.DIAGONAL_NOT_ONE]

    def test_diagonal_tolerance(self, fixture_profile, fixture_matrix, tes_csv):
        beyond = tes_csv.replace(b"1,0,", b"1.00000001,0,", 1)  # off by 1e-8
        with pytest.raises(CsvValidationError):
            parse_tes(beyond, fixture_profile)
        within = tes_csv.replace(b"1,0,", b"1.0000000001,0,", 1)  # off by 1e-10
        matrix, _ = parse_tes(within, fixture_profile)
        assert matrix == fixture_matrix

    def test_blank_above_diagonal(self, fixture_profile, tes_csv):
        corrupted = tes_csv.replace(b"1,0,0.1,", b"1,,0.1,", 1)
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(corrupted, fixture_profile)
        (issue,) = exc.value.report.errors
        assert issue.code == ingest.BLANK_ABOVE_DIAGONAL
        assert (issue.row, issue.column) == (1, 2)

    def test_blank_above_diagonal_not_coerced_by_lenient(self, fixture_profile, tes_csv):
        corrupted = tes_csv.replace(b"1,0,0.1,", b"1,,0.1,", 1)
        with pytest.raises(CsvValidationError):
            parse_tes(corrupted, fixture_profile, lenient=True)

    def test_bad_number(self, fixture_profile, tes_csv):
        corrupted = tes_csv.replace(b"0.7", b"x.7", 1)
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(corrupted, fixture_profile)
        assert error_codes(exc.value) == {ingest.BAD_NUMBER}

    def test_values_below_diagonal_ignored_with_warning(self, fixture_profile, fixture_matrix, tes_csv):
        rows = tes_csv.decode().splitlines()
        cells = rows[1].split(",")
        cells[0] = "0.4"
        rows[1] = ",".join(cells)
        matrix, report = parse_tes("\n".join(rows).encode(), fixture_profile)
        assert matrix == fixture_matrix
        assert [w.code for w in report.warnings] == [ingest.BELOW_DIAGONAL_IGNORED]

    def test_round_trip(self, fixture_matrix, fixture_profile):
        again, report = parse_tes(tes_to_csv(fixture_matrix), fixture_profile)
        assert again == fixture_matrix
        assert not report.warnings

    def test_round_trip_random_instances(self):
        # The digest pins the CSV bytes of these 200 instances as written
        # when columns were stored dense, zeros included.
        rng = random.Random(2121)
        digest = hashlib.sha256()
        for _ in range(200):
            profile, matrix, _ = random_instance(rng, max_n=30)
            data = tes_to_csv(matrix)
            digest.update(data)
            again, report = parse_tes(data, profile)
            assert again == matrix
            assert not report.warnings
        assert digest.hexdigest() == "7493ec9b030cbb73856004bdcb7dae11a9b7dd2e10a562351546ca51933b5eb5"

    def test_blank_diagonal_defaults_to_one(self, fixture_profile, fixture_matrix, tes_csv):
        softened = tes_csv.replace(b"1,0,", b",0,", 1)
        matrix, _ = parse_tes(softened, fixture_profile)
        assert matrix == fixture_matrix

    def test_repeated_cell_text_stored_once(self, fixture_profile):
        years = [t.year for t in fixture_profile.topics]
        n = len(years)
        rows = (
            [""] * i + ["1"] + ["0.5" if years[j] > years[i] else "0" for j in range(i + 1, n)]
            for i in range(n)
        )
        matrix, _ = parse_tes("".join(",".join(row) + "\n" for row in rows).encode(), fixture_profile)
        stored = [tes for column in matrix.columns for _, tes in column]
        assert len(stored) > n and len({id(tes) for tes in stored}) == 1

    def test_issues_in_every_range_of_one_row(self):
        # Row 2 (year 2002) has a value below the diagonal, an off-unit
        # diagonal, a nonzero TES with its contemporary in column 3 and a
        # blank cell in column 4.
        profile, _ = parse_profile(
            profile_bytes(
                "a,0,A,0.5,2001,\"['a']\"",
                "b,1,B,0.5,2002,\"['b']\"",
                "c,2,C,0.5,2002,\"['c']\"",
                "d,3,D,0.5,2003,\"['d']\"",
                "e,4,E,0.5,2003,\"['e']\"",
            )
        )
        rows = ["1,0.2,0,0,0", "0.4,0.9,0.3,,0.6", ",,1,0.5,0", ",,,1,0", ",,,,1"]
        data = "\n".join(rows).encode()
        below = ValidationIssue(2, 1, ingest.BELOW_DIAGONAL_IGNORED, "value below the diagonal is ignored")
        blank = ValidationIssue(2, 4, ingest.BLANK_ABOVE_DIAGONAL, "blank cell above the diagonal")

        with pytest.raises(CsvValidationError) as exc:
            parse_tes(data, profile)
        assert exc.value.report.errors == [
            ValidationIssue(2, 2, ingest.DIAGONAL_NOT_ONE, "diagonal entry must be 1, got 0.9"),
            ValidationIssue(
                2, 3, ingest.CONTEMPORARY_NONZERO, "TES between contemporary topics (year 2002) must be 0, got 0.3"
            ),
            blank,
        ]
        assert exc.value.report.warnings == [below]

        lenient_warnings = [
            below,
            ValidationIssue(2, 2, ingest.DIAGONAL_NOT_ONE, "diagonal entry 0.9 coerced to 1"),
            ValidationIssue(2, 3, ingest.CONTEMPORARY_NONZERO, "contemporary TES 0.3 coerced to 0"),
        ]
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(data, profile, lenient=True)
        assert exc.value.report.errors == [blank]
        assert exc.value.report.warnings == lenient_warnings

        # With the blank filled, lenient mode stores the row's TES to later topics only.
        rows[1] = "0.4,0.9,0.3,0.7,0.6"
        matrix, report = parse_tes("\n".join(rows).encode(), profile, lenient=True)
        assert not report.errors and report.warnings == lenient_warnings
        assert matrix.columns == ((), ((0, 0.2),), (), ((1, 0.7), (2, 0.5)), ((1, 0.6),))

    def test_streamed_parse_costs_less_memory_than_the_csv(self):
        # 600 x 600, zero above the diagonal: 0.52 MB of CSV, nothing kept.
        n = 600
        profile = TemporalTopicProfile(
            topics=tuple(TopicRecord(id=f"t{i}", index=i, weight=0.5, year=2000, words=("w",)) for i in range(n))
        )
        data = tes_to_csv(TesMatrix(columns=((),) * n))
        tracemalloc.start()
        try:
            matrix, report = parse_tes(data, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.columns == ((),) * n and not report.errors and not report.warnings
        assert peak < len(data)

    def test_file_parse_costs_a_fraction_of_the_file(self, tmp_path):
        # 700 topics over 70 years with 0.2 % of the later-year cells nonzero:
        # 736 kB of CSV, read from the open file. CPython 3.11 peaks at 94 kB.
        n, per_year = 700, 10
        profile = TemporalTopicProfile(
            topics=tuple(
                TopicRecord(id=f"t{i}", index=i, weight=0.5, year=2000 + i // per_year, words=("w",)) for i in range(n)
            )
        )
        rng = random.Random(7)
        expected = TesMatrix(
            columns=tuple(
                tuple((i, 0.5) for i in range(j // per_year * per_year) if rng.random() < 0.002) for j in range(n)
            )
        )
        path = tmp_path / "tes.csv"
        path.write_bytes(tes_to_csv(expected))
        with open(path, "rb") as handle:
            tracemalloc.start()
            try:
                matrix, report = parse_tes(handle, profile)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert matrix == expected and not report.errors and not report.warnings
        assert path.stat().st_size > 700_000
        assert peak < 113_000, peak

    def test_distinct_cell_texts_cost_bounded_memory(self):
        # 400 topics over 20 years, 30 % of the cells towards later years
        # nonzero: once with 6-decimal TES, once with the same TES in tenths.
        # The many distinct 6-decimal texts must not all stay cached.
        n, per_year = 400, 20
        profile = TemporalTopicProfile(
            topics=tuple(
                TopicRecord(id=f"t{i}", index=i, weight=0.5, year=2000 + i // per_year, words=("w",)) for i in range(n)
            )
        )
        rng = random.Random(4)
        fine, coarse = [], []
        for i in range(n):
            later = (i // per_year + 1) * per_year
            values = [rng.randint(1, 10**6) / 10**6 if j >= later and rng.random() < 0.3 else 0.0 for j in range(i + 1, n)]
            head = "," * i + "1"
            fine.append(",".join([head, *(f"{v:.6f}" if v else "0" for v in values)]))
            coarse.append(",".join([head, *(f"{max(1, round(v * 10)) / 10}" if v else "0" for v in values)]))
        peak, listed = {}, {}
        for name, rows in (("fine", fine), ("coarse", coarse)):
            data = "\n".join(rows).encode()
            tracemalloc.start()
            try:
                matrix, _ = parse_tes(data, profile)
                peak[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            listed[name] = [[i for i, _ in column] for column in matrix.columns]
        assert listed["fine"] == listed["coarse"]
        assert peak["fine"] < 2 * peak["coarse"], peak

class TestCsvRows:
    """The row reader both parsers share, against the whole-text reader oracle."""

    def test_carriage_return_does_not_end_a_line(self):
        data = b"a,b\rc,d\n"
        issues = rows_or_issues(ingest._csv_rows, data)
        assert [(issue.row, issue.code) for issue in issues] == [(1, ingest.BAD_CSV)]
        assert issues == rows_or_issues(read_rows_whole_text, data)

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_truncated_bom_is_bad_encoding(self, data):
        issues = rows_or_issues(ingest._csv_rows, data)
        assert [(issue.row, issue.code) for issue in issues] == [(1, ingest.BAD_ENCODING)]
        assert issues == rows_or_issues(read_rows_whole_text, data)

    def test_bad_encoding_wins_over_earlier_bad_csv(self):
        # The bad byte lies beyond the reader's first chunk, after the bad row.
        data = b"a,b\rc,d\n" + b"0\n" * 10_000 + b"\xff\n"
        issues = rows_or_issues(ingest._csv_rows, data)
        assert [(issue.row, issue.code) for issue in issues] == [(10_002, ingest.BAD_ENCODING)]
        assert issues == rows_or_issues(read_rows_whole_text, data)

    @pytest.mark.parametrize(
        "data, row, byte",
        [
            # "words" is missing, and the bad byte lies two rows after the header.
            (b"id,index,weight,year\nt0,0,0.5,2000\n\xff\n", 3, 35),
            # The byte offset counts from after the BOM; the row is the bad byte's own.
            (codecs.BOM_UTF8 + b"id,index\n\xff\n", 2, 9),
        ],
        ids=["after-a-header-fault", "after-a-bom"],
    )
    def test_bad_byte_is_located_by_both_parsers(self, data, row, byte, fixture_profile):
        issue = ValidationIssue(row, None, ingest.BAD_ENCODING, f"input is not valid UTF-8 at byte {byte}")
        assert rows_or_issues(ingest._csv_rows, data) == rows_or_issues(read_rows_whole_text, data) == [issue]
        for parse in (parse_profile, lambda data: parse_tes(data, fixture_profile)):
            with pytest.raises(CsvValidationError) as exc:
                parse(data)
            assert exc.value.report.errors == [issue]

    def test_bom_before_matrix(self, fixture_profile, fixture_matrix, tes_csv):
        matrix, report = parse_tes(codecs.BOM_UTF8 + tes_csv, fixture_profile)
        assert matrix == fixture_matrix and not report.errors and not report.warnings

    def test_unbuffered_file(self, fixture_profile, fixture_matrix, tes_csv, tmp_path):
        path = tmp_path / "tes.csv"
        path.write_bytes(codecs.BOM_UTF8 + tes_csv)
        with open(path, "rb", buffering=0) as handle:
            matrix, report = parse_tes(handle, fixture_profile)
            assert not handle.closed
        assert matrix == fixture_matrix and not report.errors and not report.warnings

    def test_empty_rows_inside_are_rows_and_trailing_ones_are_dropped(self, fixture_profile, fixture_matrix, tes_csv):
        matrix, _ = parse_tes(tes_csv + b"\n\n\n", fixture_profile)
        assert matrix == fixture_matrix
        lines = tes_csv.splitlines(keepends=True)
        lines[4] = b"\n"
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(b"".join(lines), fixture_profile)
        assert exc.value.report.errors == [
            ValidationIssue(5, None, ingest.DIMENSION_MISMATCH, "expected 11 columns, found 0")
        ]
        assert rows_or_issues(ingest._csv_rows, tes_csv + b"\n\nx\n\n") == rows_or_issues(
            read_rows_whole_text, tes_csv + b"\n\nx\n\n"
        )
