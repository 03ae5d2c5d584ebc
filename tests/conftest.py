import random

import pytest
from hypothesis import settings

from pentaperm import oracle
from pentaperm.families import CLASSES, FamilySpec

# property tests draw the same examples on every run, with no time limit
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def all_specs(i_max, j_max=None):
    j_max = i_max if j_max is None else j_max
    return [
        FamilySpec(cls, i, j)
        for cls in CLASSES
        for i in range(1, i_max + 1)
        for j in range(1, j_max + 1)
    ]


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def power_sum_table(ctx, exponents):
    """xor of x^e over the positive exponents at every x, indexed by x's bit mask."""
    return oracle._power_sum_array(ctx, exponents).tolist()
