"""Every cache of the package is bounded (keyed by value, never unbounded).

An `lru_cache` either has a finite `maxsize` or is listed in `FINITE_DOMAIN`
with the finite set of values it can be called with; after `all_pairs` over
every rank, no cache holds more entries than its bound, and the pair cache
holds every valid pair at once."""

import importlib
import inspect
import pkgutil

import bdsweyl
from bdsweyl.bdspair import all_pairs, eligible_nodes
from bdsweyl.rootsys import CLASSICAL_MAX_RANK, build, validate_type


def valid_systems() -> list[tuple[str, int]]:
    out = []
    for letter in "ABCDEFG":
        for n in range(1, CLASSICAL_MAX_RANK + 1):
            try:
                validate_type(letter, n)
            except ValueError:
                continue
            out.append((letter, n))
    return out


def valid_pair_count() -> int:
    """One pair per valid (type, rank, node of mark >= 2)."""
    return sum(len(eligible_nodes(build(t, n))) for t, n in valid_systems())


# Unbounded caches and the size of their domain: one root system per valid (type, rank).
FINITE_DOMAIN = {
    "bdsweyl.rootsys.build": lambda: len(valid_systems()),
}


def lru_caches() -> dict:
    """Every lru_cache defined in the package, module-level or on a class, by name."""
    found = {}
    for info in pkgutil.iter_modules(bdsweyl.__path__):
        mod = importlib.import_module(f"bdsweyl.{info.name}")
        spaces = [(mod.__name__, vars(mod))]
        spaces += [(f"{mod.__name__}.{name}", vars(cls)) for name, cls in vars(mod).items()
                   if inspect.isclass(cls) and cls.__module__ == mod.__name__]
        for prefix, space in spaces:
            for attr, obj in space.items():
                if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                    found[f"{prefix}.{attr}"] = obj
    return found


def test_the_scan_finds_the_known_caches():
    names = set(lru_caches())
    assert {"bdsweyl.rootsys.build", "bdsweyl.bdspair._pair",
            "bdsweyl.garland.p_element", "bdsweyl.garland.exp_series",
            "bdsweyl.cli.build_parser"} <= names


def test_every_cache_is_bounded():
    caches = lru_caches()
    assert set(FINITE_DOMAIN) <= set(caches)
    all_pairs(CLASSICAL_MAX_RANK)
    for name, cache in caches.items():
        maxsize = cache.cache_parameters()["maxsize"]
        if name in FINITE_DOMAIN:
            bound = FINITE_DOMAIN[name]()
        else:
            assert maxsize is not None, f"{name} is unbounded and has no finite domain"
            bound = maxsize
        assert cache.cache_info().currsize <= bound, name


def test_the_pair_cache_holds_every_valid_pair():
    # from empty, all_pairs fills the pair cache with every valid pair and
    # nothing else, and each is still the cached object afterwards
    pair_cache = lru_caches()["bdsweyl.bdspair._pair"]
    assert valid_pair_count() <= pair_cache.cache_parameters()["maxsize"]
    pair_cache.cache_clear()
    pairs = all_pairs(CLASSICAL_MAX_RANK)
    assert pair_cache.cache_info().currsize == len(pairs) == valid_pair_count()
    assert all(pair_cache(p.rs, p.j) is p for p in pairs)
