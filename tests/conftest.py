import pytest

from primform.catalog import load_catalog
from primform.frobenius import prepotential
from primform.milnor import milnor_basis
from primform.primitive import build_unfolding, solve_star


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def milnor_cache(catalog):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = milnor_basis(catalog[name].weighted_polynomial())
        return cache[name]

    return get


@pytest.fixture(scope="session")
def solved_cache(catalog, milnor_cache):
    """Shared full-J solver results keyed by (entry name, order)."""
    cache = {}

    def get(name, order):
        key = (name, order)
        if key not in cache:
            data = milnor_cache(name)
            state = build_unfolding(catalog[name].weighted_polynomial(), data, order)
            cache[key] = solve_star(state, floor=-order)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def frobenius_cache(milnor_cache, solved_cache):
    cache = {}

    def get(name, order=4):
        key = (name, order)
        if key not in cache:
            cache[key] = prepotential(solved_cache(name, order), milnor_cache(name))
        return cache[key]

    return get
