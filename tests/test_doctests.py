import doctest
import importlib
import pkgutil

import desarrange

# every module of the package except the one that runs the command line
MODULES = [importlib.import_module(f"desarrange.{info.name}")
           for info in pkgutil.iter_modules(desarrange.__path__) if info.name != "__main__"]


def test_doctests_of_every_module():
    attempted = 0
    for module in MODULES:
        results = doctest.testmod(module)
        assert results.failed == 0, module.__name__
        attempted += results.attempted
    assert attempted > 0
