"""Shared fixtures: the catalog polytopes.

Plain helpers live in ``helpers.py``; test modules import them from there.
"""

import pytest

from toricstab import catalog


@pytest.fixture(scope="session")
def cp2():
    return catalog("cp2")


@pytest.fixture(scope="session")
def square():
    return catalog("cp1xcp1")


@pytest.fixture(scope="session")
def blowup1():
    return catalog("cp2_1blowup")


@pytest.fixture(scope="session")
def pentagon():
    return catalog("cp2_2blowup")


@pytest.fixture(scope="session")
def hexagon11():
    return catalog("cp2_3blowup")


@pytest.fixture(scope="session")
def hexagon23():
    return catalog("hexagon(2,3)")
