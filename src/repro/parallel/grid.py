"""Canonical forms and parameter grids for sweep points.

A design point is identified by its parameters, not by Python object
identity: two sweeps that evaluate ``simulate_lu`` on the same machine
spec and config must produce the same cache key even though the frozen
dataclasses were constructed separately.  :func:`canonical` reduces
parameter structures to a deterministic JSON-able form, and
:func:`canonical_key` hashes that form into a hex digest used as the
cache address.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import product
from operator import itemgetter
from typing import Any, Iterator, Mapping, Sequence

__all__ = ["canonical", "canonical_json", "canonical_key", "ParamGrid"]


#: Exact types that are their own canonical form.
_PLAIN = frozenset((str, int, bool, type(None)))
#: Per dataclass type: its ``__dataclass__`` tag and field names.
_DATACLASSES: dict[type, tuple[str, tuple[str, ...]]] = {}
_BY_KEY = itemgetter(0)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-able structure.

    Dataclasses become ``{"__dataclass__": <qualified name>, <fields>...}``
    so that two different dataclasses with identical field values do not
    collide.  Mappings are key-sorted; sets are sorted; tuples/lists both
    become lists (a sweep over ``(1, 2)`` and ``[1, 2]`` is the same
    sweep).  NumPy scalars reduce to their Python equivalents via
    ``item()``; floats stay floats (``repr`` round-trips exactly through
    JSON, so keys are bit-precise).

    Every cache lookup canonicalises its task, so the common exact types
    are dispatched first and a dataclass's fields are read once per
    type; subclasses and everything else take the general checks.
    """
    cls = type(value)
    if cls in _PLAIN:
        return value
    if cls is float:
        return _finite(value)
    if cls is dict:
        items = [(k if type(k) is str else str(k), canonical(v)) for k, v in value.items()]
        items.sort(key=_BY_KEY)
        return dict(items)
    if cls is list or cls is tuple:
        return [canonical(v) for v in value]
    shape = _DATACLASSES.get(cls)
    if shape is None and dataclasses.is_dataclass(cls) and cls is not type:
        shape = _DATACLASSES[cls] = (
            f"{cls.__module__}.{cls.__qualname__}",
            tuple(field.name for field in dataclasses.fields(cls)),
        )
    if shape is not None:
        out: dict[str, Any] = {"__dataclass__": shape[0]}
        for name in shape[1]:
            out[name] = canonical(getattr(value, name))
        return out
    if isinstance(value, Mapping):
        items = [(str(k), canonical(v)) for k, v in value.items()]
        items.sort(key=_BY_KEY)
        return dict(items)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return _finite(value) if isinstance(value, float) else value
    # NumPy scalars (and anything else with an exact Python equivalent).
    item = getattr(value, "item", None)
    if callable(item):
        got = item()
        if isinstance(got, (str, int, float, bool)) or got is None:
            return canonical(got)
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} value {value!r}")


def _finite(value: float) -> float:
    if math.isfinite(value):
        return value
    # json.dumps would emit non-standard ``NaN``/``Infinity`` tokens that
    # strict parsers reject, so keys stop round-tripping.
    raise TypeError(
        f"cannot canonicalise non-finite float {value!r}: cache keys must be strict JSON"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value`` (sorted keys, no whitespace)."""
    # allow_nan=False backstops :func:`canonical`: nothing non-finite may
    # reach the wire even through a future canonicalisation hole.  One
    # encoder serves every call (json.dumps builds one per call).
    return _ENCODER.encode(canonical(value))


def canonical_key(value: Any) -> str:
    """A stable sha256 hex digest of ``value``'s canonical form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def _dedup(values: Sequence[Any]) -> tuple[Any, ...]:
    """``values`` with duplicates dropped, first occurrence order kept.

    Equality is judged on the canonical JSON form -- the same identity
    the cache keys on, so two values collapse exactly when they would
    address the same cache entry.  Values that cannot be canonicalised
    are kept verbatim and left for the cache layer to reject later.
    """
    seen: set[str] = set()
    out: list[Any] = []
    for value in values:
        try:
            marker = canonical_json(value)
        except TypeError:
            out.append(value)
            continue
        if marker in seen:
            continue
        seen.add(marker)
        out.append(value)
    return tuple(out)


class ParamGrid:
    """A cartesian product of named parameter axes, in deterministic order.

    >>> grid = ParamGrid(b=[1500, 3000], l=[2, 3])
    >>> [p["b"] for p in grid]
    [1500, 1500, 3000, 3000]

    Axis order follows declaration order; the rightmost axis varies
    fastest, like nested for-loops.

    Repeated values on an axis are dropped (first occurrence wins), so
    e.g. a ratio axis whose rounded values coincide does not schedule the
    same point twice within one sweep:

    >>> len(ParamGrid(l=[2, 2, 3]))
    2
    """

    def __init__(self, **axes: Sequence[Any]) -> None:
        if not axes:
            raise ValueError("ParamGrid requires at least one axis")
        self.axes: dict[str, tuple[Any, ...]] = {}
        for name, values in axes.items():
            if not len(values):
                raise ValueError(f"axis {name!r} is empty")
            self.axes[name] = _dedup(values)

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = list(self.axes)
        for combo in product(*self.axes.values()):
            yield dict(zip(names, combo))

    def points(self) -> list[dict[str, Any]]:
        """All grid points as a list of dicts."""
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "x".join(str(len(v)) for v in self.axes.values())
        return f"<ParamGrid {shape} over {list(self.axes)}>"
