import pytest

from schurlie import derivations


@pytest.fixture
def cold_fixing_cache():
    """Clear the annihilate-and-fix solver's per-(n, i, u) cache before and
    after the test: a test that patches the solver's internals then sees
    every system solved under its patch, and leaves no h solved under it."""
    derivations._fixing_map.cache_clear()
    yield
    derivations._fixing_map.cache_clear()
