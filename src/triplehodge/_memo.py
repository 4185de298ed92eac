"""The package's one memo policy for values kept for the life of a process.

``memo`` is the one decorator: ``functools.lru_cache(maxsize=None,
typed=True)``, unbounded, with typed keys so that 2.0 never finds the
value of 2.  A memo filled by hand is a ``Table``.  Both are registered
here under their qualified names, so ``clear_all()`` reaches every memo
(a route can be run cold again in the same process) and ``info()``
counts each one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

# the shape of functools' cache_info(), for the Tables
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

# every memo of the package, by qualified name
_registry: dict = {}


def memo(fn):
    """fn memoized for the life of the process; returns the registered
    functools wrapper itself."""
    wrapper = lru_cache(maxsize=None, typed=True)(fn)
    _registry[f"{fn.__module__}.{fn.__qualname__}"] = wrapper
    return wrapper


class Table(dict):
    """A memo that its owner fills by hand, adding to hits or misses on
    each lookup; registered under name."""

    def __init__(self, name: str):
        super().__init__()
        self.hits = self.misses = 0
        _registry[name] = self

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, None, len(self))


def clear_all() -> None:
    """Empty every memo of the package and zero its counts."""
    for m in _registry.values():
        m.cache_clear()


def info() -> dict[str, tuple[int, int, int]]:
    """{qualified name: (hits, misses, keys held)} for every memo."""
    counts = {}
    for name, m in _registry.items():
        hits, misses, _maxsize, keys = m.cache_info()
        counts[name] = (hits, misses, keys)
    return counts
