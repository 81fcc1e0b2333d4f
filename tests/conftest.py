import functools

import pytest

_REPRODUCED = {}


@pytest.fixture(scope="session")
def reproduce_cached():
    """Session-memoized table reproduction (tables are deterministic)."""
    from flagchern.tables import reproduce

    def run(table_id, oracle="weyl", slow=False):
        key = (table_id, oracle, slow)
        if key not in _REPRODUCED:
            _REPRODUCED[key] = reproduce(table_id, oracle=oracle, slow=slow)
        return _REPRODUCED[key]

    return run


@pytest.fixture
def cold_root_systems(monkeypatch):
    """A call swaps in an empty root-system cache for the rest of the test,
    so every table built on a root system starts cold; the warm cache comes
    back when the test ends, or at ``monkeypatch.undo()``."""
    import flagchern.rootsys as rootsys

    def swap():
        monkeypatch.setattr(rootsys, "_root_system",
                            functools.cache(rootsys._root_system.__wrapped__))

    return swap


@pytest.fixture
def weyl_todd_genus():
    """The Todd genus from one fixed-point batch of its monomials."""
    from flagchern.chern import chern_numbers, todd_genus, todd_polynomial

    def genus(flag, acs):
        monos = list(todd_polynomial(flag.complex_dim).coefficients)
        return todd_genus(flag, acs, chern_numbers(flag, acs, monos))

    return genus


@pytest.fixture(scope="session")
def borel_basis():
    """The reduced lex Groebner basis of a full-flag Borel ideal, computed
    once per family and rank."""
    from flagchern.groebner import MonomialOrder, borel_generators, buchberger

    @functools.cache
    def basis(family, rank):
        return buchberger(borel_generators(family, rank), MonomialOrder("lex"))

    return basis
