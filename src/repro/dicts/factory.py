"""Factory and registry for dictionary implementations.

Operators never instantiate a concrete dictionary type directly: they
receive a *kind* string from the workflow plan (``"map"``,
``"unordered_map"`` or ``"dict"``) and call :func:`make_dict`. This is the
seam the paper's fourth optimization turns: the planner assigns a possibly
different kind to each workflow phase.
"""

from __future__ import annotations

from typing import Callable

from repro.dicts.api import Dictionary
from repro.dicts.btree import BTreeMap
from repro.dicts.builtin import BuiltinDict
from repro.dicts.hashmap import DEFAULT_RESERVE, HashMap
from repro.dicts.treemap import TreeMap
from repro.errors import ConfigurationError

__all__ = [
    "make_dict",
    "register_dict_kind",
    "available_kinds",
    "dict_candidate_pairs",
    "DEFAULT_KIND",
    "PLANNER_KINDS",
]

#: Kind used when a plan does not specify one.
DEFAULT_KIND = "map"

#: Kinds planners enumerate by default. The paper's experiments compare
#: ``std::map`` against ``std::unordered_map``; ``btree`` and ``dict`` stay
#: registered for direct use but are not part of the default search space.
PLANNER_KINDS = ("map", "unordered_map")

_REGISTRY: dict[str, Callable[[int], Dictionary]] = {
    "map": lambda reserve: TreeMap(),
    "unordered_map": lambda reserve: HashMap(reserve=reserve),
    "btree": lambda reserve: BTreeMap(),
    "dict": lambda reserve: BuiltinDict(),
}


def make_dict(kind: str = DEFAULT_KIND, reserve: int = DEFAULT_RESERVE) -> Dictionary:
    """Instantiate a dictionary of the requested ``kind``.

    Parameters
    ----------
    kind:
        One of :func:`available_kinds` (``"map"``, ``"unordered_map"``,
        ``"dict"`` unless extended).
    reserve:
        Pre-sizing hint; only meaningful for hash-based kinds. Defaults to
        the paper's 4K pre-size.
    """
    try:
        builder = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown dictionary kind {kind!r}; available: {available_kinds()}"
        ) from None
    return builder(reserve)


def register_dict_kind(kind: str, builder: Callable[[int], Dictionary]) -> None:
    """Register a custom dictionary implementation under ``kind``.

    ``builder`` receives the reserve hint and must return a fresh
    :class:`Dictionary`. Registering an existing kind replaces it, which is
    useful in tests; production code should pick fresh names.
    """
    if not kind:
        raise ConfigurationError("dictionary kind must be a non-empty string")
    _REGISTRY[kind] = builder


def available_kinds() -> list[str]:
    """Sorted list of registered dictionary kinds."""
    return sorted(_REGISTRY)


def dict_candidate_pairs(
    kinds: tuple[str, ...] = PLANNER_KINDS, *, mixed: bool = True
) -> list[tuple[str, str]]:
    """Candidate ``(wc_kind, transform_kind)`` pairs for the simulator.

    The virtual-time :class:`repro.sim.planner.WorkflowPlanner` calls
    this instead of hard-coding the list (a real run touches no
    dictionary, so the real-execution planner has no such dimension).
    Uniform pairs come first (same kind in both phases), then — when
    ``mixed`` is true — the cross pairs that let the planner assign a
    different implementation per phase, the paper's fourth optimization.
    """
    for kind in kinds:
        if kind not in _REGISTRY:
            raise ConfigurationError(
                f"unknown dictionary kind {kind!r}; available: {available_kinds()}"
            )
    pairs = [(kind, kind) for kind in kinds]
    if mixed:
        pairs.extend(
            (a, b) for a in kinds for b in kinds if a != b
        )
    return pairs
