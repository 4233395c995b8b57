"""Time-predictable caches of Patmos and the conventional baselines."""

from .hierarchy import CacheHierarchy, HierarchyOptions
from .method_cache import MethodCache, MethodCacheResult
from .set_assoc import CacheAccessResult, IdealCache, SetAssociativeCache
from .stack_cache import StackCache, StackCacheResult
from .stats import CacheStats

__all__ = [
    "CacheAccessResult",
    "CacheHierarchy",
    "CacheStats",
    "HierarchyOptions",
    "IdealCache",
    "MethodCache",
    "MethodCacheResult",
    "SetAssociativeCache",
    "StackCache",
    "StackCacheResult",
]
