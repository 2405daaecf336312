import math
import os

import numpy as np
import pytest

from lfunclab.characters import primitive_characters
from lfunclab.localdata import (
    character_representation,
    dirichlet_character_family,
    make_family,
    synthetic_family,
    trivial_representation,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
LARGE_ARRAY = 10**8  # elements: past anything a desk-scale run allocates at once


def ramanujan_tau_table(n_max: int) -> list[int]:
    """tau(1..n_max) from the 24th power of the Euler product, exact ints."""
    # prod_{m >= 1} (1 - q^m) up to degree n_max - 1
    eta = [0] * n_max
    eta[0] = 1
    for m in range(1, n_max):
        for i in range(n_max - 1, m - 1, -1):
            eta[i] -= eta[i - m]
    power = [0] * n_max
    power[0] = 1
    for _ in range(24):
        new = [0] * n_max
        for i, c in enumerate(power):
            if c:
                for j, d in enumerate(eta[: n_max - i]):
                    if d:
                        new[i + j] += c * d
        power = new
    return power  # tau(n) = power[n - 1]


@pytest.fixture(scope="session")
def delta_csv():
    """Frozen CSV of tau(p) for every prime p < 10^4 (exact integers)."""
    return os.path.join(DATA_DIR, "delta_ap_10000.csv")


@pytest.fixture(scope="session")
def zeta_zeros_path():
    return os.path.join(DATA_DIR, "zeta_zeros_200.txt")


@pytest.fixture(scope="session")
def trivial_rep():
    return trivial_representation()


@pytest.fixture(scope="session")
def char_family_20():
    """All primitive characters of modulus <= 20 (the PSD sweep family)."""
    from lfunclab.localdata import dirichlet_family_by_modulus

    return dirichlet_family_by_modulus(20)


@pytest.fixture(scope="session")
def small_char_family():
    members = [trivial_representation()]
    members += [character_representation(c) for q in (3, 4, 5) for c in primitive_characters(q)]
    return make_family(members, label="chars(q<=5)+trivial")


@pytest.fixture(scope="session")
def gl2_family():
    return synthetic_family(2, 3, seed=17)


@pytest.fixture(scope="session")
def conductor_family_20():
    return dirichlet_character_family(20)


@pytest.fixture
def refuse_large_arrays(monkeypatch):
    """np.ones and np.linspace fail past LARGE_ARRAY elements, so a ceiling
    test whose check comes after the allocation fails instead of exhausting
    memory."""

    def guarded(real, size):
        def wrapper(*args, **kwargs):
            assert size(*args, **kwargs) <= LARGE_ARRAY, f"np.{real.__name__} past the guard"
            return real(*args, **kwargs)

        return wrapper

    ones_size = lambda shape, *args, **kwargs: math.prod(np.atleast_1d(shape))
    linspace_size = lambda start, stop, num=50, *args, **kwargs: num
    monkeypatch.setattr(np, "ones", guarded(np.ones, ones_size))
    monkeypatch.setattr(np, "linspace", guarded(np.linspace, linspace_size))
