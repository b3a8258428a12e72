"""T13 — durability ablation: WAL commit overhead and recovery modes.

Two questions the durability subsystem (``repro.durability``) must
answer with numbers, not vibes:

* **Commit overhead** — how much does write-ahead logging cost per
  commit? Measured as single-row INSERT autocommits against an
  in-memory database, a durable database with ``durability="async"``
  (WAL written, no fsync), and ``durability="fsync"`` (one fsync per
  commit). Acceptance: fsync-on commits stay within 3x of in-memory.
* **Recovery modes** — a checkpoint must buy something: replay cost
  scales with *history length* (every logged write is re-applied),
  checkpoint load with *live state size*. On an update-heavy workload —
  a small table rewritten many times over, the shape checkpoints exist
  for — reopening from checkpoint + empty WAL must be strictly faster
  than replaying the full WAL history it replaced.

Deterministic facts (commit counts, records replayed, checkpoint
sequence, invariant checks) land in the committed
``BENCH_durability.json``, so a run leaves it byte-identical; wall-clock
numbers and their ratios go to the ignored ``results.txt``.

Run:  PYTHONPATH=src python benchmarks/bench_t13_durability.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro import Database  # noqa: E402

from reporting import emit, emit_json, table  # noqa: E402

#: Single-row INSERT autocommits per throughput sample.
COMMITS = 400
#: Interleaved repetitions of the three commit modes (median taken).
REPETITIONS = 5
#: Live rows of the recovery table (what a checkpoint must restore).
SEED_ROWS = 200
#: Update commits accumulated in the WAL (what replay must re-apply);
#: each rewrites ``UPDATE_ROWS`` rows, so history is ~50x live state.
REPLAY_COMMITS = 400
UPDATE_ROWS = 50
#: Reopen samples per recovery mode (min taken).
REOPEN_SAMPLES = 3


def _seed(db: Database) -> None:
    db.create_warehouse("wh")
    db.execute("CREATE TABLE items (id int, val int)")


def _commit_loop(db: Database, commits: int) -> float:
    start = time.perf_counter()
    for index in range(commits):
        db.execute(f"INSERT INTO items VALUES ({index}, {index % 97})")
    return time.perf_counter() - start


def _throughput_sample(mode: str | None) -> float:
    if mode is None:
        db = Database()
        directory = None
    else:
        directory = tempfile.mkdtemp(prefix="bench-t13-")
        db = Database(path=directory, durability=mode)
    try:
        _seed(db)
        elapsed = _commit_loop(db, COMMITS)
        count = db.query("SELECT count(*) c FROM items").rows[0][0]
        assert count == COMMITS, count
        return elapsed
    finally:
        db.close()
        if directory is not None:
            shutil.rmtree(directory)


def _measure_throughput() -> dict:
    modes = {"memory": None, "async": "async", "fsync": "fsync"}
    samples: dict[str, list[float]] = {name: [] for name in modes}
    for __ in range(REPETITIONS):
        for name, mode in modes.items():
            samples[name].append(_throughput_sample(mode))

    def median_ms(name: str) -> float:
        return round(statistics.median(samples[name]) * 1e3, 2)

    def overhead(name: str) -> float:
        return round(statistics.median(
            mine / memory
            for mine, memory in zip(samples[name], samples["memory"])), 2)

    return {
        "commits": COMMITS,
        "memory_ms": median_ms("memory"),
        "async_ms": median_ms("async"),
        "fsync_ms": median_ms("fsync"),
        "async_overhead": overhead("async"),
        "fsync_overhead": overhead("fsync"),
    }


def _reopen_seconds(directory: str) -> tuple[float, dict]:
    start = time.perf_counter()
    db = Database(path=directory)
    elapsed = time.perf_counter() - start
    try:
        recovery = db.durability_status()["recovery"]
        count = db.query("SELECT count(*) c FROM items").rows[0][0]
        assert count == SEED_ROWS, count
    finally:
        db.close()
    return elapsed, recovery


def _measure_recovery() -> dict:
    directory = tempfile.mkdtemp(prefix="bench-t13-recovery-")
    try:
        db = Database(path=directory)
        _seed(db)
        db.execute("INSERT INTO items VALUES " + ", ".join(
            f"({index}, 0)" for index in range(SEED_ROWS)))
        for index in range(REPLAY_COMMITS):
            db.execute(f"UPDATE items SET val = {index} "
                       f"WHERE id < {UPDATE_ROWS}")
        db.close()

        # Full WAL replay: every reopen replays the whole history (a
        # clean reopen appends nothing, so samples are repeatable).
        replay_samples = [_reopen_seconds(directory)
                          for __ in range(REOPEN_SAMPLES)]
        replay_s = min(seconds for seconds, __ in replay_samples)
        replay_report = replay_samples[0][1]
        assert replay_report["records_replayed"] >= REPLAY_COMMITS

        # Checkpoint, then reopen from checkpoint + empty WAL.
        db = Database(path=directory)
        db.checkpoint()
        db.close()
        ckpt_samples = [_reopen_seconds(directory)
                        for __ in range(REOPEN_SAMPLES)]
        ckpt_s = min(seconds for seconds, __ in ckpt_samples)
        ckpt_report = ckpt_samples[0][1]
        assert ckpt_report["records_replayed"] == 0
        assert ckpt_report["checkpoint_seq"] >= 1

        return {
            "commits": REPLAY_COMMITS,
            "live_rows": SEED_ROWS,
            "rows_touched_per_commit": UPDATE_ROWS,
            "replay_records": replay_report["records_replayed"],
            "checkpoint_records": ckpt_report["records_replayed"],
            "checkpoint_seq": ckpt_report["checkpoint_seq"],
            "replay_ms": round(replay_s * 1e3, 2),
            "checkpoint_ms": round(ckpt_s * 1e3, 2),
            "recovery_speedup": round(replay_s / ckpt_s, 2),
        }
    finally:
        shutil.rmtree(directory)


_CACHE: dict = {}


def _results() -> dict:
    if not _CACHE:
        _CACHE["throughput"] = _measure_throughput()
        _CACHE["recovery"] = _measure_recovery()
        _report(_CACHE)
    return _CACHE


def _report(results: dict) -> None:
    tp, rec = results["throughput"], results["recovery"]
    emit_json("BENCH_durability.json", {
        "scenario": ("WAL commit overhead (in-memory vs async vs "
                     "fsync-per-commit) and recovery-mode comparison "
                     "(full WAL replay vs checkpoint + empty WAL)"),
        "commit_throughput": {"commits": tp["commits"],
                              "repetitions": REPETITIONS},
        "recovery": {key: rec[key] for key in (
            "commits", "live_rows", "rows_touched_per_commit",
            "replay_records", "checkpoint_records", "checkpoint_seq")},
        "invariants_ok": (rec["checkpoint_records"] == 0
                          and rec["replay_records"] >= rec["commits"]),
        "timings": "see benchmarks/results.txt",
    })
    emit(f"T13 durability: commit overhead ({COMMITS} autocommits, "
         f"median of {REPETITIONS} interleaved repetitions)",
         table(["mode", "ms", "overhead vs memory"],
               [["memory", tp["memory_ms"], "1.0"],
                ["async", tp["async_ms"], f"{tp['async_overhead']}x"],
                ["fsync", tp["fsync_ms"], f"{tp['fsync_overhead']}x"]]))
    emit(f"T13 durability: recovery modes ({REPLAY_COMMITS} update "
         f"commits x {UPDATE_ROWS} rows over {SEED_ROWS} live rows)", [
        f"full WAL replay ({rec['replay_records']} records): "
        f"{rec['replay_ms']}ms",
        f"checkpoint + empty WAL: {rec['checkpoint_ms']}ms",
        f"-> checkpoint recovery {rec['recovery_speedup']}x faster",
    ])


#: Acceptance: fsync-on commits within 3x of in-memory. Wall-clock
#: ratios flake on noisy shared CI runners, so CI sets a slack value
#: that still catches the WAL path becoming pathological (e.g. an
#: accidental fsync per row instead of per commit).
MAX_COMMIT_OVERHEAD = float(
    os.environ.get("DURABILITY_MAX_COMMIT_OVERHEAD", "3.0"))
#: Acceptance: checkpoint recovery strictly faster than full replay.
MIN_RECOVERY_SPEEDUP = float(
    os.environ.get("DURABILITY_MIN_RECOVERY_SPEEDUP", "1.0"))


def test_commit_overhead_within_bound():
    results = _results()
    assert results["throughput"]["fsync_overhead"] <= MAX_COMMIT_OVERHEAD, \
        results["throughput"]


def test_checkpoint_recovery_beats_full_replay():
    results = _results()
    assert results["recovery"]["recovery_speedup"] > MIN_RECOVERY_SPEEDUP, \
        results["recovery"]


if __name__ == "__main__":
    print(json.dumps(_results(), indent=2))
