import gwpskit


def test_public_names_exist():
    """Every exported name is defined, so a star import succeeds and binds them all."""
    missing = [name for name in gwpskit.__all__ if not hasattr(gwpskit, name)]
    assert missing == []
    namespace = {}
    exec("from gwpskit import *", namespace)
    assert set(gwpskit.__all__) <= set(namespace)
