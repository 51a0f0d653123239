import pytest
from hypothesis import settings

import permpat as pp
from permpat import groups as groups_mod

# every property test draws the same examples on every run; tests that set
# their own max_examples keep it
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def degree6_catalog():
    """Every subgroup of S_6, enumerated once per test session (about 4 s)."""
    return tuple(pp.enumerate_subgroups(6))


@pytest.fixture(scope="session")
def laws_seed0():
    """One ``verify_laws(seed=0)`` run per test session (about 2 s)."""
    return tuple(pp.verify_laws(seed=0))


@pytest.fixture
def fresh_catalog():
    """Empties the per-process subgroup memo before and after the test, so
    the next enumerate_subgroups call of each degree runs the enumeration;
    call it to empty it again."""
    groups_mod._subgroup_catalog.cache_clear()
    yield groups_mod._subgroup_catalog.cache_clear
    groups_mod._subgroup_catalog.cache_clear()
