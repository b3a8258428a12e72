"""The SQL value model: types, NULL semantics, comparisons, and hashing.

Values are plain Python objects:

========== ==========================================
SQL type    Python representation
========== ==========================================
INT         ``int``
FLOAT       ``float``
TEXT        ``str``
BOOL        ``bool``
TIMESTAMP   ``int`` (nanoseconds since the sim epoch)
VARIANT     ``dict`` / ``list`` / any scalar (JSON-ish)
NULL        ``None``
========== ==========================================

The helpers in this module centralize the subtle parts of SQL semantics so
the executor and the IVM rules never reimplement them:

* three-valued logic (``sql_and``/``sql_or``/``sql_not``),
* NULL-aware comparison (any comparison with NULL is NULL),
* grouping keys where ``NULL == NULL`` (SQL GROUP BY / DISTINCT semantics),
* deterministic hashing of rows for row-id derivation.

Floats are permitted as values but, following section 3.4 of the paper
("we prohibit their use only when the nondeterminism would interfere with
view maintenance, such as joining on a float aggregate key"), the plan
validator in :mod:`repro.plan.properties` rejects float-typed join and
grouping keys for incremental dynamic tables.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from typing import Any, Iterable, Sequence

from repro.errors import EvaluationError, TypeError_
from repro.util.timeutil import MINUTE, SECOND, Timestamp

Value = Any  # a SQL value in its Python representation (None for NULL)


class SqlType(enum.Enum):
    """The SQL types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    TIMESTAMP = "timestamp"
    VARIANT = "variant"
    #: The type of bare NULL literals; unifies with every other type.
    NULL = "null"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


#: Names accepted in DDL / cast syntax -> SqlType.
TYPE_NAMES: dict[str, SqlType] = {
    "int": SqlType.INT,
    "integer": SqlType.INT,
    "bigint": SqlType.INT,
    "smallint": SqlType.INT,
    "number": SqlType.INT,
    "float": SqlType.FLOAT,
    "double": SqlType.FLOAT,
    "real": SqlType.FLOAT,
    "text": SqlType.TEXT,
    "string": SqlType.TEXT,
    "varchar": SqlType.TEXT,
    "char": SqlType.TEXT,
    "bool": SqlType.BOOL,
    "boolean": SqlType.BOOL,
    "timestamp": SqlType.TIMESTAMP,
    "datetime": SqlType.TIMESTAMP,
    "variant": SqlType.VARIANT,
    "object": SqlType.VARIANT,
    "array": SqlType.VARIANT,
}


def type_from_name(name: str) -> SqlType:
    """Resolve a type name as it appears in SQL (case-insensitive)."""
    sql_type = TYPE_NAMES.get(name.lower())
    if sql_type is None:
        raise TypeError_(f"unknown type name: {name!r}")
    return sql_type


def type_of_value(value: Value) -> SqlType:
    """Infer the SqlType of a Python value (used for literals)."""
    if value is None:
        return SqlType.NULL
    if isinstance(value, bool):  # must precede int: bool is a subclass
        return SqlType.BOOL
    if isinstance(value, int):
        return SqlType.INT
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.TEXT
    if isinstance(value, (dict, list)):
        return SqlType.VARIANT
    raise TypeError_(f"unsupported Python value for SQL: {value!r}")


_NUMERIC = {SqlType.INT, SqlType.FLOAT}


def unify_types(left: SqlType, right: SqlType) -> SqlType:
    """The common supertype of two types, as used by CASE/UNION/COALESCE.

    NULL unifies with anything; INT and FLOAT unify to FLOAT; everything
    else must match exactly.
    """
    if left == right:
        return left
    if left == SqlType.NULL:
        return right
    if right == SqlType.NULL:
        return left
    if left in _NUMERIC and right in _NUMERIC:
        return SqlType.FLOAT
    if SqlType.VARIANT in (left, right):
        return SqlType.VARIANT
    raise TypeError_(f"cannot unify types {left} and {right}")


def is_comparable(left: SqlType, right: SqlType) -> bool:
    """Whether ``<`` / ``=`` between the two types is well-typed."""
    if SqlType.NULL in (left, right):
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    return left == right


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def sql_and(left: Value, right: Value) -> Value:
    """SQL AND with NULL propagation (NULL AND FALSE = FALSE)."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Value, right: Value) -> Value:
    """SQL OR with NULL propagation (NULL OR TRUE = TRUE)."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(operand: Value) -> Value:
    """SQL NOT with NULL propagation."""
    if operand is None:
        return None
    return not operand


def is_true(value: Value) -> bool:
    """Whether a predicate result selects the row (NULL counts as false)."""
    return value is True


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def compare(left: Value, right: Value) -> int | None:
    """Three-way comparison; returns None when either side is NULL.

    Raises :class:`~repro.errors.EvaluationError` for incomparable values
    (e.g. comparing TEXT with INT), mirroring a runtime type error.
    """
    if left is None or right is None:
        return None
    left_is_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_is_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_is_num and right_is_num:
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if type(left) is not type(right):
        raise EvaluationError(f"cannot compare {left!r} with {right!r}")
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sql_equal(left: Value, right: Value) -> Value:
    """SQL ``=``: NULL if either side is NULL."""
    result = compare(left, right)
    return None if result is None else result == 0


# ---------------------------------------------------------------------------
# Grouping keys (NULL == NULL, used by GROUP BY / DISTINCT / join hashing)
# ---------------------------------------------------------------------------

#: Sentinel object distinguishing SQL NULL inside grouping keys.
_NULL_KEY = ("\x00sql-null\x00",)


def group_key(values: Iterable[Value]) -> tuple:
    """A hashable key under which NULLs compare equal and numbers compare
    across int/float (1 and 1.0 share a group, as in SQL). Numbers keep
    their own value: Python's ``1 == 1.0`` and ``hash(1) == hash(1.0)``
    already give that equality, and exactly — 2**53 and 2**53 + 1 are two
    keys. Every NaN shares one key."""
    key = []
    for value in values:
        if value is None:
            key.append(_NULL_KEY)
        elif isinstance(value, bool):
            key.append(("b", value))
        elif isinstance(value, (int, float)):
            if isinstance(value, float) and math.isnan(value):
                key.append(("nan",))
            else:
                key.append(("n", value))
        elif isinstance(value, (dict, list)):
            key.append(("v", canonical_json(value)))
        else:
            key.append(("s", value))
    return tuple(key)


def group_key_columns(columns: Sequence[Sequence], count: int) -> list[tuple]:
    """Columnar analogue of :func:`group_key`: normalize one column array
    at a time, then zip per row. One branchy pass per column instead of
    one per cell-in-row-order, so delta slices and columnar relations can
    compute grouping keys without materializing row tuples."""
    if not columns:
        return [()] * count
    normalized: list[list] = []
    for column in columns:
        normed = []
        append = normed.append
        for value in column:
            if value is None:
                append(_NULL_KEY)
            elif isinstance(value, bool):
                append(("b", value))
            elif isinstance(value, (int, float)):
                if isinstance(value, float) and math.isnan(value):
                    append(("nan",))
                else:
                    append(("n", value))
            elif isinstance(value, (dict, list)):
                append(("v", canonical_json(value)))
            else:
                append(("s", value))
        normalized.append(normed)
    if len(normalized) == 1:
        return [(item,) for item in normalized[0]]
    return list(zip(*normalized))


def canonical_json(value: Value) -> str:
    """A deterministic JSON rendering used for VARIANT hashing/equality."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def stable_hash(values: Iterable[Value]) -> str:
    """A deterministic short hex digest of a row, independent of the Python
    process hash seed. Used by :mod:`repro.ivm.rowid`."""
    digest = hashlib.sha1()
    for value in values:
        if value is None:
            digest.update(b"\x00N")
        elif isinstance(value, bool):
            digest.update(b"\x00B" + (b"1" if value else b"0"))
        elif isinstance(value, int):
            digest.update(b"\x00I" + str(value).encode())
        elif isinstance(value, float):
            digest.update(b"\x00F" + repr(value).encode())
        elif isinstance(value, str):
            digest.update(b"\x00S" + value.encode())
        else:
            digest.update(b"\x00V" + canonical_json(value).encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------

def cast_value(value: Value, target: SqlType) -> Value:
    """Cast a value to ``target``, following Snowflake-ish rules.

    TEXT timestamps accept ``'HH:MM[:SS]'`` and plain integers (treated as
    nanoseconds); this keeps the paper's Listing 1 expressible
    (``e.payload:time::timestamp``) without a calendar library.
    """
    if value is None:
        return None
    try:
        if target == SqlType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return int(value.strip())
        elif target == SqlType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
        elif target == SqlType.TEXT:
            if isinstance(value, str):
                return value
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                return str(value)
            return canonical_json(value)
        elif target == SqlType.BOOL:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return value != 0
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "yes", "1"):
                    return True
                if lowered in ("false", "f", "no", "0"):
                    return False
        elif target == SqlType.TIMESTAMP:
            if isinstance(value, bool):
                raise EvaluationError("cannot cast BOOL to TIMESTAMP")
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return parse_timestamp_text(value)
        elif target == SqlType.VARIANT:
            if isinstance(value, str):
                # Parse JSON text into a VARIANT value (Snowflake's
                # TO_VARIANT/PARSE_JSON behaviour); non-JSON text stays text.
                try:
                    return json.loads(value)
                except json.JSONDecodeError:
                    return value
            return value
        elif target == SqlType.NULL:
            return None
    except (ValueError, TypeError) as exc:
        raise EvaluationError(f"cannot cast {value!r} to {target}: {exc}") from exc
    raise EvaluationError(f"cannot cast {value!r} to {target}")


def parse_timestamp_text(text: str) -> Timestamp:
    """Parse ``'HH:MM'``, ``'HH:MM:SS'``, or a bare integer (nanoseconds).

    The simulation has no calendar; clock-of-day strings map onto the first
    simulated day.
    """
    stripped = text.strip()
    if ":" in stripped:
        parts = stripped.split(":")
        if len(parts) not in (2, 3):
            raise EvaluationError(f"invalid timestamp literal: {text!r}")
        hour = int(parts[0])
        minute = int(parts[1])
        second = int(parts[2]) if len(parts) == 3 else 0
        return hour * 60 * MINUTE + minute * MINUTE + second * SECOND
    return int(stripped)
