"""The names the benchmark patches and reads still exist on the library.

``bench/tracing.py`` wraps library functions and methods by name from
outside ``src/``, and ``bench/run.py`` clears and reads the
``is_p_irreducible`` cache.  A rename in the library would break a traced
benchmark run without failing any other test.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import posetcodes
from posetcodes import search

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = tracing.SPANS + tracing.COUNTERS + (tracing.GROUP_SIZE,)


def _library():
    """The library as the benchmark sees it: one attribute per submodule."""
    modules = {
        name: importlib.import_module(f"posetcodes.{name}")
        for name in {module for _, module, _ in TARGETS}
    }
    return SimpleNamespace(package=posetcodes, **modules)


@pytest.mark.parametrize("layer,module,attribute", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracing_target_resolves(layer, module, attribute):
    owner, name = tracing._resolve(_library(), module, attribute)
    if isinstance(owner, type):
        # Methods are patched through the class dictionary.
        assert name in owner.__dict__
    else:
        assert callable(getattr(owner, name))


def test_irreducibility_cache_is_exposed():
    irreducible = search.is_p_irreducible
    irreducible.cache_clear()
    info = irreducible.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
