"""The ordering kernel sorts exactly as the comparator it replaced.

:class:`repro.engine.window.Ordering` sorts row indices by key: one stable
``list.sort`` pass per ORDER BY key, then the digest tie-break for rows
that tie on every key. The comparator below is the sort it replaced —
``functools.cmp_to_key`` over ``types.compare`` with NULLS LAST ascending
/ NULLS FIRST descending, then ``(stable_hash(row), row_id)`` — kept here
as the oracle. On every input the comparator totally orders (no NaN), the
two must give the same index order, and where it raises on incomparable
values the kernel must raise the same error type.
"""

from __future__ import annotations

import functools
import math
import random

import pytest

from repro.engine import types as t
from repro.engine.window import Ordering
from repro.errors import EvaluationError


def _compare_with_nulls(left, right, descending: bool) -> int:
    if left is None and right is None:
        return 0
    if left is None:
        return 1 if not descending else -1
    if right is None:
        return -1 if not descending else 1
    result = t.compare(left, right)
    assert result is not None
    return -result if descending else result


def oracle_sort(columns, row_ids, keys, descending, indices) -> list[int]:
    ordering = list(zip(keys, descending))

    def tie_key(index: int) -> tuple:
        row = tuple(column[index] for column in columns)
        return (t.stable_hash(row), row_ids[index])

    def compare_rows(left: int, right: int) -> int:
        for values, reverse in ordering:
            result = _compare_with_nulls(values[left], values[right],
                                         reverse)
            if result != 0:
                return result
        left_tie, right_tie = tie_key(left), tie_key(right)
        return (left_tie > right_tie) - (left_tie < right_tie)

    return sorted(indices, key=functools.cmp_to_key(compare_rows))


#: Value domains, small so duplicates (and digest tie-breaks) are common.
#: ``float`` mixes ints in (3 ties 3.0) and carries -0.0 / 0.0 / ±inf.
DOMAINS = {
    "null": [None],
    "int": [None, -2, 0, 1, 3, 3, 7],
    "float": [None, -1.5, -0.0, 0.0, 3, 3.0, 2.5, math.inf, -math.inf],
    "text": [None, "", "a", "b", "ab", "B"],
    "bool": [None, True, False],
}


def _random_input(rng: random.Random, keys: int):
    count = rng.randint(0, 30)
    kinds = [rng.choice(sorted(DOMAINS)) for __ in range(keys)]
    key_arrays = [[rng.choice(DOMAINS[kind]) for __ in range(count)]
                  for kind in kinds]
    # The key columns plus one low-cardinality payload column: rows may
    # tie on every key yet differ (digest decides) or be identical
    # (row id decides).
    columns = key_arrays + [[rng.choice("xy") for __ in range(count)]]
    row_ids = [f"r{rng.randrange(10 ** 6)}:{index}" for index in range(count)]
    descending = [rng.random() < 0.5 for __ in range(keys)]
    return columns, row_ids, key_arrays, descending


@pytest.mark.parametrize("key_count", range(4))
def test_kernel_order_equals_comparator(key_count):
    rng = random.Random(key_count)
    for __ in range(100):
        columns, row_ids, keys, descending = _random_input(rng, key_count)
        count = len(row_ids)
        ordering = Ordering(columns, row_ids, keys, descending)
        assert ordering.sort(range(count)) == oracle_sort(
            columns, row_ids, keys, descending, range(count))
        # Any subset (a window partition), in any input order.
        subset = [index for index in range(count) if rng.random() < 0.6]
        rng.shuffle(subset)
        expected = oracle_sort(columns, row_ids, keys, descending, subset)
        assert ordering.sort(subset) == expected
        for limit in (0, 1, 3, count + 1):
            assert ordering.sort(subset, limit) == expected[:limit]


@pytest.mark.parametrize("key_count", range(1, 4))
def test_peer_groups_are_rows_equal_on_every_key(key_count):
    rng = random.Random(key_count)
    for __ in range(50):
        columns, row_ids, keys, descending = _random_input(rng, key_count)
        order, starts = Ordering(columns, row_ids, keys,
                                 descending).by_keys(range(len(row_ids)))
        group_keys = t.group_key_columns(
            [[values[index] for index in order] for values in keys],
            len(order))
        assert starts == [position for position in range(len(order))
                          if position == 0 or group_keys[position]
                          != group_keys[position - 1]]


@pytest.mark.parametrize("mixed", [
    [1, "a"], ["a", None, 2], [True, 1], [0, None, False],
    [2.5, "x", 1], [1.0, True]])
@pytest.mark.parametrize("descending", [False, True])
def test_incomparable_keys_raise_in_both(mixed, descending):
    count = len(mixed)
    columns, row_ids = [mixed], [f"r{index}" for index in range(count)]
    with pytest.raises(EvaluationError):
        oracle_sort(columns, row_ids, [mixed], [descending], range(count))
    with pytest.raises(EvaluationError, match="cannot compare"):
        Ordering(columns, row_ids, [mixed], [descending]).sort(range(count))


def test_int_and_float_compare_as_numbers():
    values = [3.0, 1, 2.5, 3, -0.0, 0]
    row_ids = [f"r{index}" for index in range(len(values))]
    order = Ordering([values], row_ids, [values], [False]).sort(range(6))
    assert [values[index] for index in order][:2] in ([-0.0, 0], [0, -0.0])
    assert [values[index] for index in order][2:4] == [1, 2.5]


@pytest.mark.parametrize("descending", [False, True])
def test_nan_sorts_above_every_float_and_below_null(descending):
    nan = float("nan")
    values = [nan, 1.0, None, math.inf, float("nan"), -math.inf, -0.0]
    row_ids = [f"r{index}" for index in range(len(values))]
    order = Ordering([values], row_ids, [values], [descending]).sort(
        range(len(values)))
    ranks = ["null" if values[index] is None
             else "nan" if values[index] != values[index]
             else values[index] for index in order]
    ascending = [-math.inf, -0.0, 1.0, math.inf, "nan", "nan", "null"]
    assert ranks == (ascending[::-1] if descending else ascending)
    # The two NaNs are peers: they tie and fall to the digest tie-break,
    # so their relative order does not depend on the input order.
    reordered = Ordering([values[::-1]], row_ids[::-1], [values[::-1]],
                         [descending]).sort(range(len(values)))
    assert ([row_ids[::-1][index] for index in reordered]
            == [row_ids[index] for index in order])
