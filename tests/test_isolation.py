"""Tests for the derivation-extended isolation formalism (section 4)."""

import os
import subprocess
import sys

import pytest

from repro.isolation import (Abort, Commit, DependencyKind, Derive,
                             DirectSerializationGraph, History,
                             IsolationLevel, Read, Version, Write, classify,
                             detect_phenomena, is_encapsulated)
from repro.isolation.examples import (X1, X2, Y3, Y4, figure1_history,
                                      figure2_history,
                                      snapshot_isolated_reader_history)
from repro.isolation.theorems import (check_encapsulation,
                                      check_transaction_invariance,
                                      exclude_derivation, move_derivation)


REPO = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLES = sorted(name for name in os.listdir(os.path.join(REPO, "examples"))
                  if name.endswith(".py"))


def run_under_hash_seeds(argv, seeds=("0", "1")):
    """stdout of ``python *argv`` (from the repo root), once per seed."""
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(REPO, "src"))
        result = subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    return outputs


#: Ten 4-row partitions, then a DELETE and an UPDATE that each touch
#: several of them: the order the touched partitions are rewritten in
#: decides the new partition ids, hence the scan order.
MULTI_PARTITION_DML = """
from repro import Database
db = Database()
db.execute("CREATE TABLE t (a INT, b TEXT)")
db.catalog.versioned_table("t").partition_rows = 4
db.execute("INSERT INTO t VALUES "
           + ", ".join(f"({i}, 'x')" for i in range(40)))
db.execute("DELETE FROM t WHERE a % 5 = 0")
db.execute("UPDATE t SET b = 'y' WHERE a % 7 = 0")
print(db.query("SELECT a FROM t").rows)
"""


class TestHistoryStructure:
    def test_version_order_inferred_from_installs(self):
        history = History([Write(1, X1), Write(2, X2)])
        assert history.version_order["x"] == [X1, X2]
        assert history.next_version(X1) == X2
        assert history.next_version(X2) is None

    def test_implicit_commit(self):
        history = History([Write(1, X1)])
        assert 1 in history.committed

    def test_explicit_abort(self):
        history = History([Write(1, X1), Abort(1)])
        assert 1 in history.aborted
        assert 1 not in history.committed

    def test_derivation_closure_transitive(self):
        z = Version("z", 5)
        history = History([
            Write(1, X1), Derive(3, Y3, (X1,)), Derive(5, z, (Y3,))])
        assert history.derives_from(z, X1)
        assert history.base_versions_of(z) == {X1}

    def test_closure_of_written_version_is_itself(self):
        history = History([Write(1, X1)])
        assert history.base_versions_of(X1) == {X1}

    def test_cyclic_derivations_terminate(self):
        # Degenerate but must not hang.
        a = Version("a", 1)
        b = Version("b", 2)
        history = History([Derive(1, a, (b,)), Derive(2, b, (a,))])
        assert history.base_versions_of(a) == set()


class TestDsgEdges:
    def test_direct_read_dependency(self):
        history = History([Write(1, X1), Read(2, X1)])
        dsg = DirectSerializationGraph(history)
        assert any(edge.source == 1 and edge.target == 2
                   and edge.kind == DependencyKind.READ
                   for edge in dsg.edges)

    def test_read_through_derivation_targets_writer(self):
        history = History([
            Write(1, X1), Derive(3, Y3, (X1,)), Read(5, Y3)])
        dsg = DirectSerializationGraph(history)
        kinds = {(edge.source, edge.target, edge.kind) for edge in dsg.edges}
        assert (1, 5, DependencyKind.READ) in kinds
        # The deriving transaction itself gains no edges.
        assert not any(3 in (edge.source, edge.target)
                       for edge in dsg.edges)

    def test_anti_dependency_through_derivation(self):
        history = History([
            Write(1, X1), Derive(3, Y3, (X1,)), Write(2, X2), Read(5, Y3)])
        dsg = DirectSerializationGraph(history)
        assert any(edge.source == 5 and edge.target == 2
                   and edge.kind == DependencyKind.ANTI
                   for edge in dsg.edges)

    def test_write_dependency_direct(self):
        history = History([Write(1, X1), Write(2, X2)])
        dsg = DirectSerializationGraph(history)
        assert any(edge.source == 1 and edge.target == 2
                   and edge.kind == DependencyKind.WRITE
                   for edge in dsg.edges)

    def test_write_dependency_through_consecutive_derived_versions(self):
        history = History([
            Write(1, X1), Derive(3, Y3, (X1,)),
            Write(2, X2), Derive(4, Y4, (X2,))])
        dsg = DirectSerializationGraph(history)
        assert any(edge.source == 1 and edge.target == 2
                   and edge.kind == DependencyKind.WRITE
                   and "y3" in edge.reason
                   for edge in dsg.edges)

    def test_aborted_transactions_excluded_from_nodes(self):
        history = History([Write(1, X1), Abort(1), Write(2, X2)])
        dsg = DirectSerializationGraph(history)
        assert 1 not in dsg.nodes

    def test_pretty_is_hash_seed_independent(self):
        # The demo's history has two T1 -ww-> T2 edges that differ only
        # in ``reason``; edges live in a set, so any sort key that omits
        # a field prints them in hash order.
        outputs = run_under_hash_seeds(
            [os.path.join("examples", "isolation_demo.py")])
        assert "-ww->" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_example_output_is_hash_seed_independent(self, example):
        first, second = run_under_hash_seeds(
            [os.path.join("examples", example)])
        assert first and first == second

    def test_scan_order_after_dml_is_hash_seed_independent(self):
        # ``StagedWrite.deletes`` is a set: rewriting touched partitions
        # in its iteration order made the scan order follow the seed.
        outputs = run_under_hash_seeds(["-c", MULTI_PARTITION_DML],
                                       seeds=("0", "1", "2"))
        assert len(set(outputs)) == 1
        assert outputs[0].count("(") == 32  # 40 rows, 8 deleted


class TestPhenomena:
    def test_g0_write_cycle(self):
        a1, a2 = Version("a", 1), Version("a", 2)
        b2, b1 = Version("b", 2), Version("b", 1)
        history = History(
            [Write(1, a1), Write(2, a2), Write(2, b2), Write(1, b1)],
            version_order={"a": [a1, a2], "b": [b2, b1]})
        report = detect_phenomena(history)
        assert report.g0

    def test_g1a_aborted_read_through_derivation(self):
        history = History([
            Write(1, X1), Abort(1), Derive(3, Y3, (X1,)), Read(5, Y3),
            Commit(5)])
        report = detect_phenomena(history)
        assert report.g1a
        assert "aborted" in report.g1a[0]

    def test_g1b_intermediate_read_through_derivation(self):
        x1a = Version("x", 1)
        # T1 writes x twice; the first install is intermediate.
        x1_final = Version("x", 10)
        history = History(
            [Write(1, x1a), Write(1, x1_final),
             Derive(3, Y3, (x1a,)), Read(5, Y3), Commit(5)],
            version_order={"x": [x1a, x1_final], "y": [Y3]})
        report = detect_phenomena(history)
        assert report.g1b
        assert "intermediate" in report.g1b[0]

    def test_g1c_circular_information_flow(self):
        a1, b2 = Version("a", 1), Version("b", 2)
        history = History([
            Write(1, a1), Read(2, a1), Write(2, b2), Read(1, b2)])
        report = detect_phenomena(history)
        assert report.g1c

    def test_clean_history(self):
        history = History([Write(1, X1), Read(2, X1), Commit(1), Commit(2)])
        report = detect_phenomena(history)
        assert report.exhibited() == []


class TestPaperFigures:
    def test_figure1_is_serializable(self):
        """'The DSG is serializable despite the clear presence of read
        skew because the refresh transactions mask the conflict.'"""
        report = detect_phenomena(figure1_history())
        assert report.exhibited() == []
        assert classify(figure1_history()) == IsolationLevel.PL_3

    def test_figure2_reveals_g_single(self):
        """'This causes a cycle to appear, exhibiting phenomenon G2 (and
        G-single), revealing the read skew.'"""
        report = detect_phenomena(figure2_history())
        assert report.g2
        assert report.g_single
        assert not report.g0 and not report.any_g1

    def test_figure2_cycle_is_t2_t5(self):
        dsg = DirectSerializationGraph(figure2_history())
        cycles = dsg.cycles()
        assert [2, 5] in [sorted(cycle) for cycle in cycles]

    def test_figure2_classifies_pl2(self):
        """PL-2 (read committed) holds; PL-2+ is violated — matching the
        paper's 'Otherwise, it is guaranteed Read Committed (PL-2)'."""
        assert classify(figure2_history()) == IsolationLevel.PL_2

    def test_snapshot_reader_is_clean(self):
        history = snapshot_isolated_reader_history()
        assert detect_phenomena(history).exhibited() == []
        assert classify(history) == IsolationLevel.PL_3


class TestTheorems:
    def test_theorem1_on_figure2(self):
        history = figure2_history()
        derivation = next(e for e in history.events
                          if isinstance(e, Derive) and e.version == Y3)
        for target in (1, 2, 5):
            assert check_transaction_invariance(history, derivation, target)

    def test_theorem1_preserves_phenomena(self):
        history = figure2_history()
        derivation = next(e for e in history.events
                          if isinstance(e, Derive) and e.version == Y3)
        moved = move_derivation(history, derivation, 1)
        assert detect_phenomena(moved).exhibited() == \
               detect_phenomena(history).exhibited()

    def test_corollary2_encapsulated_derivation_removable(self):
        w = Version("w", 1)
        d = Version("d", 1)
        history = History([
            Write(1, w), Derive(1, d, (w,)), Read(1, d), Commit(1),
            Read(2, w), Commit(2)])
        derivation = next(e for e in history.events if isinstance(e, Derive))
        assert is_encapsulated(history, derivation)
        assert check_encapsulation(history, derivation)

    def test_non_encapsulated_rejected(self):
        history = figure2_history()
        derivation = next(e for e in history.events
                          if isinstance(e, Derive) and e.version == Y3)
        assert not is_encapsulated(history, derivation)  # T5 reads y3
        with pytest.raises(ValueError):
            check_encapsulation(history, derivation)

    def test_exclusion_removes_version(self):
        w = Version("w", 1)
        d = Version("d", 1)
        history = History([
            Write(1, w), Derive(1, d, (w,)), Read(1, d), Commit(1)])
        derivation = next(e for e in history.events if isinstance(e, Derive))
        excluded = exclude_derivation(history, derivation)
        assert d not in excluded.installers
