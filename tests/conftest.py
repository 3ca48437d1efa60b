import pytest

from u21hecke.fields import Tower


@pytest.fixture(scope="session")
def tower():
    """The tests' shared q = 3 tower at window 24."""
    tw = Tower(3, 1)
    tw.default_window = 24
    return tw


@pytest.fixture(scope="session")
def tower5():
    return Tower(5, 1)


@pytest.fixture(scope="session")
def tower7():
    return Tower(7, 1)
