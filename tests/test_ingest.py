import hashlib
import random

import pytest

from helpers import random_instance
from topictree import ingest
from topictree.ingest import (
    CsvValidationError,
    ValidationIssue,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
)

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
