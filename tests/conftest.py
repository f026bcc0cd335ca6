import random

import pytest

from hypermatch import lp


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture(autouse=True)
def fresh_lp_solve():
    """solve_fractional keeps the last graph's solve; each test starts without it."""
    lp.solve_fractional.cache_clear()
