"""The four ``netmod-*`` workloads: schema, DT graph, queries and mixes.

Pure data — nothing here imports ``repro`` — so ``run.py`` can list the
workloads without the engine on its path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gen import Mix

N_INSTANCES = 2000

BASE_TABLES = (
    "CREATE TABLE instances(inst_id int, region text, software text, "
    "users int)",
    "CREATE TABLE events(event_id int, src int, dst int, day int, "
    "severity text, weight int)",
)

#: name -> (defining query, action every post-warm-up refresh must take).
DYNAMIC_TABLES = {
    # Enrichment join of the fact stream with the dimension table.
    "enriched": (
        "SELECT e.event_id, e.src, e.dst, e.day, e.severity, e.weight, "
        "i.region, i.software "
        "FROM events e JOIN instances i ON e.dst = i.inst_id",
        "INCREMENTAL"),
    # Stateful aggregate (per-group accumulators carried across refreshes).
    "per_instance": (
        "SELECT dst, count(*) AS blocks, sum(weight) AS w "
        "FROM events GROUP BY dst",
        "INCREMENTAL"),
    # Dynamic table over a dynamic table.
    "per_region_day": (
        "SELECT region, day, count(*) AS blocks, sum(weight) AS w "
        "FROM enriched GROUP BY region, day",
        "INCREMENTAL"),
    # Filter plus retractable extrema.
    "sev_daily": (
        "SELECT day, severity, count(*) AS n, min(weight) AS lo, "
        "max(weight) AS hi FROM events WHERE weight >= 2 "
        "GROUP BY day, severity",
        "INCREMENTAL"),
    # Join whose delta side is itself a dynamic table.
    "inst_totals": (
        "SELECT p.dst, p.blocks, p.w, i.region, i.software "
        "FROM per_instance p JOIN instances i ON p.dst = i.inst_id",
        "INCREMENTAL"),
    # Window top-k, third level of the chain.
    "top_per_region": (
        "SELECT dst, blocks, region FROM inst_totals "
        "QUALIFY row_number() OVER (PARTITION BY region "
        "ORDER BY blocks DESC, dst) <= 5",
        "INCREMENTAL"),
    # ORDER BY ... LIMIT resolves to FULL: evaluate + overwrite every tick.
    "top_blocked": (
        "SELECT dst, blocks FROM per_instance "
        "ORDER BY blocks DESC, dst LIMIT 20",
        "FULL"),
    # The canonical dedupe: latest block per (src, dst) pair.
    "latest_block": (
        "SELECT src, dst, event_id, severity FROM events "
        "QUALIFY row_number() OVER (PARTITION BY src, dst "
        "ORDER BY event_id DESC) = 1",
        "INCREMENTAL"),
}

CORE = ("enriched", "per_instance", "per_region_day", "sev_daily",
        "inst_totals", "top_per_region", "top_blocked")
#: ``latest_block`` rescans both endpoints of ``events`` every refresh; it
#: stays out of CORE so one operator does not own every tick.
DEDUPE = ("enriched", "per_instance", "latest_block")

INSERT_INSTANCE = "INSERT INTO instances VALUES (?, ?, ?, ?)"
INSERT_EVENT = "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?)"
DML = {
    "update_events": "UPDATE events SET weight = weight + 1 "
                     "WHERE event_id >= ? AND event_id < ?",
    "delete_events": "DELETE FROM events "
                     "WHERE event_id >= ? AND event_id < ?",
    "update_instance": "UPDATE instances SET software = ? "
                       "WHERE inst_id = ?",
}
QUERIES = {
    # Point read of a dynamic table by key.
    "lookup": "SELECT blocks, w FROM per_instance WHERE dst = ?",
    # Zone-map pruned window over the fact table.
    "range": "SELECT count(*), sum(weight) FROM events "
             "WHERE event_id >= ? AND event_id < ?",
    # Full scan of the widest dynamic table.
    "scan": "SELECT software, count(*) FROM enriched WHERE weight >= ? "
            "GROUP BY software",
}
#: Sent as fresh text with a varying literal: tokenize, parse, bind,
#: optimize and execute on every call.
ADHOC = ("SELECT i.region, sum(p.blocks) c FROM per_instance p "
         "JOIN instances i ON p.dst = i.inst_id WHERE p.w > {k} "
         "GROUP BY i.region ORDER BY c DESC LIMIT 3")

WARMUP_ROUNDS = 3
#: A full ``gc.collect()`` runs at the end of every this-many-th round.
FULL_GC_EVERY = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_events: int
    tables: tuple[str, ...]
    mix: Mix
    #: Measured rounds per run. Fixed, so a run walks the same table
    #: sizes on every commit; ``--seconds`` only cuts a run short.
    rounds: int
    durable: bool = False
    #: ``db.checkpoint()`` after every this-many-th round (durable only).
    checkpoint_every: int = 0
    n_instances: int = N_INSTANCES

    def scaled(self, divisor: int) -> "Workload":
        """The same workload over ``1/divisor`` of the rows (``--smoke``)."""
        if divisor == 1:
            return self
        mix = self.mix
        small = replace(
            mix, insert=max(mix.insert // divisor, 10),
            update_widths=tuple(max(w // divisor, 2)
                                for w in mix.update_widths),
            delete_widths=tuple(max(w // divisor, 2)
                                for w in mix.delete_widths))
        return replace(self, n_events=self.n_events // divisor,
                       n_instances=self.n_instances // divisor, mix=small,
                       checkpoint_every=min(self.checkpoint_every, 4))


WORKLOADS = {w.name: w for w in (
    Workload(
        "netmod-steady",
        "Headline: small mixed insert/update/delete deltas against a large "
        "fact table; DML predicate scans and the 7-table refresh tick "
        "share the round.",
        n_events=60_000, tables=CORE, rounds=40,
        mix=Mix(insert=500, update_widths=(100,), delete_widths=(100,),
                lookups=10, ranges=5, scans=1, adhocs=1)),
    Workload(
        "netmod-burst",
        "Insert-only large deltas on a growing table: bulk ingest, "
        "partition build, the insert-only change path and vectorised "
        "aggregate folds; the only DML is an UPDATE that matches no row.",
        n_events=20_000, tables=CORE, rounds=20,
        mix=Mix(insert=5000, missing_instance_updates=1,
                lookups=10, ranges=5, scans=2, adhocs=1)),
    Workload(
        "netmod-dimchurn",
        "Dimension-side updates force the join rule to scan the fact "
        "endpoint and the dedupe window to rescan both endpoints; writes "
        "are a few percent of the round. Also the memory canary.",
        n_events=40_000, tables=DEDUPE, rounds=40,
        mix=Mix(insert=100, instance_updates=3,
                lookups=10, ranges=5, scans=1, adhocs=1)),
    Workload(
        "netmod-serve-durable",
        "Reads beside trickle writes with every commit (DML and each "
        "refresh's change set) through WAL + fsync, periodic checkpoints "
        "and a recovery at the end; guards the read and durability paths.",
        n_events=40_000, tables=CORE, rounds=50, durable=True,
        checkpoint_every=20,
        mix=Mix(insert=50, update_widths=(10,),
                lookups=20, ranges=20, scans=2, adhocs=2)),
)}
