import os
from pathlib import Path

import pytest

import depmodal
from depmodal import fixtures


@pytest.fixture(scope="session")
def open_door():
    return fixtures.load_fixture("open_door")


@pytest.fixture(scope="session")
def experiment_2runs():
    return fixtures.load_fixture("experiment_2runs")


@pytest.fixture(scope="session")
def experiment_3runs():
    return fixtures.load_fixture("experiment_3runs")


@pytest.fixture(scope="session")
def judging_case_1():
    return fixtures.load_fixture("judging_case_1")


@pytest.fixture(scope="session")
def judging_case_2():
    return fixtures.load_fixture("judging_case_2")


@pytest.fixture(scope="session")
def witness():
    return fixtures.load_fixture("dl_strictness_witness")


@pytest.fixture(scope="session")
def package_env():
    """Environment for a fresh interpreter that imports this package."""
    src = str(Path(depmodal.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
