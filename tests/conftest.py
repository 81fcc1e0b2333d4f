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
