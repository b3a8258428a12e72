"""Tests for change sets and consolidation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChangeIntegrityError
from repro.ivm.changes import Action, Change, ChangeSet, consolidate

from deltas import changeset as cs, deletes, inserts


class TestChangeSetBasics:
    def test_insert_only_flag(self):
        assert cs(("+", "a", (1,))).insert_only
        assert not cs(("+", "a", (1,)), ("-", "b", (2,))).insert_only
        assert ChangeSet().insert_only

    def test_partition_by_action(self):
        changes = cs(("+", "a", (1,)), ("-", "b", (2,)), ("+", "c", (3,)))
        assert len(inserts(changes)) == 2
        assert len(deletes(changes)) == 1

    def test_bool_and_len(self):
        assert not ChangeSet()
        assert len(cs(("+", "a", (1,)))) == 1


class TestValidation:
    def test_duplicate_pair_rejected(self):
        changes = cs(("+", "a", (1,)), ("+", "a", (2,)))
        with pytest.raises(ChangeIntegrityError, match="duplicate"):
            changes.validate()

    def test_same_id_different_actions_ok(self):
        cs(("-", "a", (1,)), ("+", "a", (2,))).validate()

    def test_delete_of_missing_row(self):
        changes = cs(("-", "a", (1,)))
        with pytest.raises(ChangeIntegrityError, match="nonexistent"):
            changes.validate(existing_row_ids={})

    def test_insert_of_present_row(self):
        changes = cs(("+", "a", (1,)))
        with pytest.raises(ChangeIntegrityError, match="already-present"):
            changes.validate(existing_row_ids={"a": 1})

    def test_update_of_present_row_ok(self):
        cs(("-", "a", (1,)), ("+", "a", (2,))).validate(
            existing_row_ids={"a": 1})


#: One shared NaN object (equal to nothing, identical to itself) and a
#: nested list beside the scalar kinds a column can hold.
_NAN = float("nan")
_VALUES = st.sampled_from([None, "x", "y", 0, 1, 2, _NAN, [1, [2]]])


class TestConsolidate:
    def test_insert_then_delete_cancels(self):
        result = consolidate(cs(("+", "a", (1,)), ("-", "a", (1,))))
        assert len(result) == 0

    def test_delete_then_identical_insert_cancels(self):
        # The read-amplification case: a copied row must vanish.
        result = consolidate(cs(("-", "a", (1,)), ("+", "a", (1,))))
        assert len(result) == 0

    def test_delete_then_changed_insert_is_update(self):
        result = consolidate(cs(("-", "a", (1,)), ("+", "a", (2,))))
        assert [c.action for c in result] == [Action.DELETE, Action.INSERT]
        assert deletes(result)[0].row == (1,)
        assert inserts(result)[0].row == (2,)

    def test_deletes_precede_inserts(self):
        result = consolidate(cs(("+", "b", (2,)), ("-", "a", (1,))))
        assert [c.action for c in result] == [Action.DELETE, Action.INSERT]

    def test_delete_insert_delete_nets_delete(self):
        result = consolidate(cs(("-", "a", (1,)), ("+", "a", (2,)),
                                ("-", "a", (2,))))
        assert [c.action for c in result] == [Action.DELETE]
        assert deletes(result)[0].row == (1,)

    def test_insert_delete_insert_nets_insert(self):
        result = consolidate(cs(("+", "a", (1,)), ("-", "a", (1,)),
                                ("+", "a", (3,))))
        assert [c.action for c in result] == [Action.INSERT]
        assert inserts(result)[0].row == (3,)

    def test_insert_only_set_passes_through_checked(self):
        only = cs(("+", "a", (1,)), ("+", "b", (2,)))
        assert consolidate(only) is only  # nothing to cancel, nothing copied

    def test_duplicate_insert_is_integrity_error(self):
        with pytest.raises(ChangeIntegrityError):
            consolidate(cs(("+", "a", (1,)), ("+", "a", (2,))))

    def test_duplicate_delete_is_integrity_error(self):
        with pytest.raises(ChangeIntegrityError):
            consolidate(cs(("-", "a", (1,)), ("-", "a", (1,))))

    def test_result_always_validates(self):
        result = consolidate(cs(
            ("-", "a", (1,)), ("+", "a", (2,)),
            ("+", "b", (5,)), ("-", "c", (9,))))
        result.validate()

    @given(st.integers(0, 3).flatmap(lambda width: st.lists(
        st.tuples(st.sampled_from(["ins", "del", "upd"]),
                  st.sampled_from(["r1", "r2", "r3"]),
                  st.tuples(*[_VALUES] * width)),
        max_size=12)))
    def test_consolidation_matches_state_replay(self, ops):
        """Property: applying the consolidated set to the initial state
        produces the same final state as replaying the raw sequence —
        over 0–3-column rows of NULLs, text, ints, one shared NaN object
        and a nested list."""
        width = len(ops[0][2]) if ops else 1
        state: dict[str, tuple] = {row_id: (0,) * width
                                   for row_id in ("r1", "r2", "r3")}
        initial = dict(state)
        raw = []
        for kind, row_id, row in ops:
            if kind == "ins" and row_id not in state:
                state[row_id] = row
                raw.append(("+", row_id, row))
            elif kind == "del" and row_id in state:
                raw.append(("-", row_id, state.pop(row_id)))
            elif kind == "upd" and row_id in state:
                raw.append(("-", row_id, state[row_id]))
                state[row_id] = row
                raw.append(("+", row_id, row))

        net = consolidate(cs(*raw))
        net.validate(existing_row_ids=initial)
        replayed = dict(initial)
        for change in deletes(net):
            assert replayed.pop(change.row_id) == change.row
        for change in inserts(net):
            assert change.row_id not in replayed
            replayed[change.row_id] = change.row
        assert replayed == state
        # An update that rewrites a row to what it already was cancels:
        # no id is both deleted and re-inserted with an equal row.
        deleted = {change.row_id: change.row for change in deletes(net)}
        assert all(deleted.get(change.row_id) != change.row
                   for change in inserts(net))


class TestColumnarLayout:
    def test_triples_become_columns_and_back(self):
        changes = cs(("+", "a", (1, "x")), ("-", "b", (2, None)))
        assert changes.columns == [(1, 2), ("x", None)]
        assert list(changes) == [Change(Action.INSERT, "a", (1, "x")),
                                 Change(Action.DELETE, "b", (2, None))]

    def test_zero_width_rows_survive(self):
        changes = cs(("+", "a", ()), ("+", "b", ()))
        assert changes.columns == [] and len(changes) == 2
        assert [change.row for change in changes] == [(), ()]
        assert len(consolidate(changes)) == 2

    def test_ragged_triples_rejected(self):
        with pytest.raises(ValueError):
            cs(("+", "a", (1, 2)), ("+", "b", (3,)))

    def test_signed_adopts_by_reference(self):
        row_ids, columns = ("a", "b"), ((1, 2), ("x", "y"))
        changes = ChangeSet.signed(Action.DELETE, row_ids, columns)
        assert changes.row_ids is row_ids and changes.columns is columns
        assert changes.actions == [Action.DELETE] * 2

    def test_under_selects_ids_and_columns(self):
        changes = cs(("-", "a", (1,)), ("+", "b", (2,)), ("-", "c", (3,)))
        assert changes.under(Action.DELETE) == (["a", "c"], [[1, 3]])
        assert changes.under(Action.INSERT) == (["b"], [[2]])
        only = cs(("+", "a", (1,)))
        assert only.under(Action.INSERT) == (only.row_ids, only.columns)
        assert only.under(Action.DELETE) == ([], [[]])

    def test_concat_skips_empty_parts(self):
        left, right = cs(("+", "a", (1,))), cs(("-", "b", (2,)))
        both = ChangeSet.concat([ChangeSet(), left, ChangeSet(), right])
        assert list(both) == list(left) + list(right)
        assert ChangeSet.concat([ChangeSet(), left]) is left
        assert not ChangeSet.concat([])

    def test_nan_row_cancels_against_its_own_copy(self):
        # Identical-or-equal per value, as tuple comparison has it: the
        # same NaN object on both sides is an untouched row.
        nan = float("nan")
        same = consolidate(cs(("-", "a", (1, nan)), ("+", "a", (1, nan))))
        assert len(same) == 0
        other = consolidate(cs(("-", "a", (1, nan)),
                               ("+", "a", (1, float("nan")))))
        assert [change.action for change in other] == [Action.DELETE,
                                                       Action.INSERT]
