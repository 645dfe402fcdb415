import pytest

from blockortho import Measure


@pytest.fixture(scope="session")
def hermite_pair():
    return Measure.gaussian(1), Measure.gaussian(2)


@pytest.fixture(scope="session")
def laguerre_pair():
    return Measure.gamma_weight(1, 1), Measure.gamma_weight(2, 1)


@pytest.fixture
def forbid_congruence(monkeypatch):
    """Make ``measures.gram_of``, the monomial Hankel congruence, fail the
    test wherever it is bound: in ``measures`` and in every package module
    that imports it by name."""
    import importlib
    import pkgutil

    import blockortho
    from blockortho import measures

    # every module is imported before any is patched, so none binds the patch
    modules = [importlib.import_module(f"blockortho.{m.name}") for m in pkgutil.iter_modules(blockortho.__path__)]
    original = measures.gram_of
    patched = [module for module in modules if getattr(module, "gram_of", None) is original]
    for module in patched:
        monkeypatch.setattr(module, "gram_of", lambda *a: pytest.fail("took the congruence"))
    assert {module.__name__ for module in patched} >= {"blockortho.measures", "blockortho.multiblock"}
