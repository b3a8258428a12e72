"""Tagged-JSON codec for the durability subsystem.

WAL records and checkpoints are JSON (human-inspectable, no third-party
dependency), but the engine's state is built from frozen dataclasses
(AST nodes, frontiers, HLC timestamps), enums, tuples, sets, and dicts
with non-string keys — none of which plain JSON round-trips. The codec
encodes every such value as a small tagged object::

    {"$t": "tuple", "v": [...]}
    {"$t": "dc", "c": "HlcTimestamp", "f": {"wall": 3, "logical": 0}}
    {"$t": "enum", "c": "Action", "v": "insert"}

Only classes in the explicit allowlist (:data:`REGISTRY`) decode — the
decoder never instantiates an arbitrary class named by the file. The
allowlist is part of the on-disk format: renaming or removing a
registered class is a format-breaking change and requires bumping the
WAL/checkpoint format version.

Scalars (``None``/``bool``/``int``/``str``) pass through untagged;
``float`` is tagged so that integral floats (``1.0``) survive the trip
distinct from ints and NaN/inf round-trip portably.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Any

from repro.core import dynamic_table as _dyn
from repro.core.frontier import Frontier, SourceCursor
from repro.core.lag import TargetLag
from repro.engine.schema import Column, Schema
from repro.engine.types import SqlType
from repro.errors import DurabilityError
from repro.ivm.changes import Action, ChangeSet
from repro.sql import nodes as _nodes
from repro.storage import catalog as _catalog
from repro.storage.table import StagedWrite, TableVersion
from repro.txn.hlc import HlcTimestamp


def _registered_classes() -> dict[str, type]:
    """Build the class allowlist: every dataclass of the SQL AST module
    plus the engine-state classes that appear in WAL records and
    checkpoints."""
    registry: dict[str, type] = {}

    def register(cls: type) -> None:
        name = cls.__name__
        if registry.get(name, cls) is not cls:
            raise DurabilityError(f"codec class name collision: {name}")
        registry[name] = cls

    for value in vars(_nodes).values():
        if isinstance(value, type) and dataclasses.is_dataclass(value):
            register(value)
    for cls in (Column, SqlType, HlcTimestamp, Frontier, SourceCursor,
                TargetLag, _dyn.RefreshMode, _dyn.RefreshAction,
                _dyn.DependencyRecord, _catalog.DdlEvent,
                _catalog.ViewDefinition, Action, TableVersion, StagedWrite):
        register(cls)
    return registry


REGISTRY: dict[str, type] = _registered_classes()


def encode(value: Any) -> Any:
    """Encode ``value`` into a JSON-serializable structure."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # pragma: no cover - caught above
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"$t": "f", "v": "nan"}
        if math.isinf(value):
            return {"$t": "f", "v": "inf" if value > 0 else "-inf"}
        return {"$t": "f", "v": value}
    if isinstance(value, tuple):
        return {"$t": "tuple", "v": [encode(item) for item in value]}
    if isinstance(value, list):
        return {"$t": "list", "v": [encode(item) for item in value]}
    if isinstance(value, frozenset):
        return {"$t": "frozenset", "v": [encode(item) for item in value]}
    if isinstance(value, set):
        return {"$t": "set", "v": [encode(item) for item in value]}
    if isinstance(value, dict):
        return {"$t": "dict",
                "v": [[encode(key), encode(item)]
                      for key, item in value.items()]}
    if isinstance(value, Schema):
        return {"$t": "schema", "v": [encode(column) for column in value]}
    if isinstance(value, ChangeSet):
        return {"$t": "changeset",
                "a": [action.value for action in value.actions],
                "i": list(value.row_ids),
                "c": [[encode(item) for item in column]
                      for column in value.columns]}
    if isinstance(value, enum.Enum):
        cls = type(value)
        if REGISTRY.get(cls.__name__) is not cls:
            raise DurabilityError(f"unregistered enum: {cls.__name__}")
        return {"$t": "enum", "c": cls.__name__, "v": encode(value.value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if REGISTRY.get(cls.__name__) is not cls:
            raise DurabilityError(f"unregistered dataclass: {cls.__name__}")
        fields = {f.name: encode(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"$t": "dc", "c": cls.__name__, "f": fields}
    raise DurabilityError(
        f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode(value: Any) -> Any:
    """Decode a structure produced by :func:`encode`."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list):  # only appears inside tagged containers
        return [decode(item) for item in value]
    if not isinstance(value, dict):
        raise DurabilityError(f"undecodable value: {value!r}")
    tag = value.get("$t")
    if tag == "f":
        raw = value["v"]
        if raw == "nan":
            return math.nan
        if raw == "inf":
            return math.inf
        if raw == "-inf":
            return -math.inf
        return float(raw)
    if tag == "tuple":
        return tuple(decode(item) for item in value["v"])
    if tag == "list":
        return [decode(item) for item in value["v"]]
    if tag == "frozenset":
        return frozenset(decode(item) for item in value["v"])
    if tag == "set":
        return {decode(item) for item in value["v"]}
    if tag == "dict":
        return {decode(key): decode(item) for key, item in value["v"]}
    if tag == "schema":
        return Schema(decode(column) for column in value["v"])
    if tag == "changeset":
        return ChangeSet.from_columns(
            [Action(action) for action in value["a"]],
            list(value["i"]),
            [[decode(item) for item in column] for column in value["c"]])
    if tag == "enum":
        cls = REGISTRY.get(value["c"])
        if cls is None or not issubclass(cls, enum.Enum):
            raise DurabilityError(f"unregistered enum: {value['c']}")
        return cls(decode(value["v"]))
    if tag == "dc":
        cls = REGISTRY.get(value["c"])
        if cls is None or not dataclasses.is_dataclass(cls):
            raise DurabilityError(f"unregistered dataclass: {value['c']}")
        fields = {name: decode(item) for name, item in value["f"].items()}
        return cls(**fields)
    raise DurabilityError(f"unknown codec tag: {tag!r}")
