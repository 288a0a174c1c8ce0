from __future__ import annotations

from pathlib import Path

import pytest

from topictree.builder import build_tet
from topictree.ingest import parse_profile, parse_tes
from topictree.model import EvolutionParams, ThresholdMode

DATA_DIR = Path(__file__).parent / "data"

#: Display label -> topic index in the example fixture.
LABEL_TO_INDEX = {chr(65 + i): i for i in range(11)}


@pytest.fixture(scope="session")
def profile_csv() -> bytes:
    return (DATA_DIR / "example_topic_profile.csv").read_bytes()


@pytest.fixture(scope="session")
def tes_csv() -> bytes:
    return (DATA_DIR / "example_tes_matrix.csv").read_bytes()


@pytest.fixture(scope="session")
def fixture_profile(profile_csv):
    profile, report = parse_profile(profile_csv)
    assert not report.warnings
    return profile


@pytest.fixture(scope="session")
def fixture_matrix(tes_csv, fixture_profile):
    matrix, report = parse_tes(tes_csv, fixture_profile)
    assert not report.warnings
    return matrix


@pytest.fixture(scope="session")
def exclusive_params() -> EvolutionParams:
    return EvolutionParams(min_tes=0.2, min_reborn=2, min_dead=1, threshold_mode=ThresholdMode.EXCLUSIVE)


@pytest.fixture(scope="session")
def inclusive_params() -> EvolutionParams:
    return EvolutionParams(min_tes=0.2, min_reborn=2, min_dead=1, threshold_mode=ThresholdMode.INCLUSIVE)


@pytest.fixture(scope="session")
def tet_exclusive(fixture_profile, fixture_matrix, exclusive_params):
    return build_tet(fixture_profile, fixture_matrix, exclusive_params)


@pytest.fixture(scope="session")
def tet_inclusive(fixture_profile, fixture_matrix, inclusive_params):
    return build_tet(fixture_profile, fixture_matrix, inclusive_params)
