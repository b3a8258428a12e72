"""Seeded input generator for the ``netmod-*`` workloads, and its model.

Mastodon_NetMod shape (SNIPPETS.md section 1): a dimension table of
fediverse instances and a stream of instance-blocks-instance moderation
events. This module shares no code with ``repro``: it emits plain tuples
and bind values, and keeps its own dict of the events that should be
live so the harness can check the engine's ``per_instance`` dynamic
table against an independent computation.

``random.Random(seed)`` is the only source of randomness; the same seed
yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REGIONS = ("africa", "asia-east", "asia-south", "europe-north",
           "europe-south", "america-north", "america-south", "oceania")
SOFTWARE = ("mastodon", "pleroma", "misskey", "akkoma", "gotosocial")
SEVERITIES = ("silence", "suspend", "limit")

#: Days the initial load is spread over; round ``r`` writes day
#: ``LOAD_DAYS + r``.
LOAD_DAYS = 30

#: The ``scan`` query's ``weight >= ?`` bind. Constant, and the ad hoc
#: query's literal stays below any group's ``sum(weight)``: a bind that
#: moved selectivity would make the latency samples multi-modal, and the
#: median of 40 such samples jumps between modes from run to run
#: (measured: 25-54 % interquartile spread across seeds, against 5 %).
SCAN_MIN_WEIGHT = 8
ADHOC_LITERALS = 10

# Keys of the prepared DML statements the harness owns.
UPDATE_EVENTS = "update_events"
DELETE_EVENTS = "delete_events"
UPDATE_INSTANCE = "update_instance"


@dataclass(frozen=True)
class Mix:
    """What one round of a workload does (counts per round)."""

    insert: int
    #: Widths of the ``UPDATE events SET weight = weight + 1`` id ranges.
    update_widths: tuple[int, ...] = ()
    #: Widths of the ``DELETE FROM events`` id ranges (oldest ids first).
    delete_widths: tuple[int, ...] = ()
    #: Single-row ``UPDATE instances SET software = ?`` statements.
    instance_updates: int = 0
    #: The same statement for an ``inst_id`` that does not exist: the
    #: predicate runs, nothing is staged, no table gets a new version.
    missing_instance_updates: int = 0
    lookups: int = 0
    ranges: int = 0
    scans: int = 0
    adhocs: int = 0


@dataclass
class RoundInputs:
    """Everything one round sends to the engine, generated up front."""

    events: list[tuple]
    #: ``(statement key, binds, rows the statement must change)``.
    dml: list[tuple[str, tuple, int]]
    lookups: list[tuple]
    ranges: list[tuple]
    scans: list[tuple]
    #: Literals spliced into the ad hoc SQL text (a fresh text per query).
    adhocs: list[int]

    @property
    def changes(self) -> int:
        """Base-table rows this round inserts, updates or deletes."""
        return len(self.events) + sum(rows for __, __, rows in self.dml)


class NetmodGenerator:
    """Tables, per-round batches and bind values for one workload run."""

    #: Width of the ``range`` query's event-id window.
    RANGE_WIDTH = 100

    def __init__(self, seed: int, n_instances: int, n_events: int):
        self._rng = random.Random(seed)
        self.n_instances = n_instances
        self.n_events = n_events
        #: The model: event_id -> [dst, weight] for every live event.
        self.live: dict[int, list[int]] = {}
        self._next_id = 0
        #: Event ids below the watermark have been deleted.
        self._low = 0

    # -- initial load --------------------------------------------------------

    def instances(self) -> list[tuple]:
        rng = self._rng
        return [(inst_id, REGIONS[inst_id % len(REGIONS)],
                 SOFTWARE[rng.randrange(len(SOFTWARE))],
                 rng.randrange(10, 100_000))
                for inst_id in range(self.n_instances)]

    def initial_events(self) -> list[tuple]:
        n = self.n_events
        return [self._event(event_id * LOAD_DAYS // n)
                for event_id in range(n)]

    def _event(self, day: int) -> tuple:
        rng = self._rng
        event_id = self._next_id
        self._next_id += 1
        dst = rng.randrange(self.n_instances)
        weight = rng.randrange(1, 10)
        self.live[event_id] = [dst, weight]
        return (event_id, rng.randrange(self.n_instances), dst, day,
                SEVERITIES[event_id % len(SEVERITIES)], weight)

    # -- one round -----------------------------------------------------------

    def round(self, index: int, mix: Mix) -> RoundInputs:
        rng = self._rng
        events = [self._event(LOAD_DAYS + index) for __ in range(mix.insert)]
        dml: list[tuple[str, tuple, int]] = []
        for width in mix.update_widths:
            # Inside the live region and clear of this round's deletes,
            # so every statement changes exactly ``width`` rows.
            lo = rng.randrange(self._low + sum(mix.delete_widths),
                               self._next_id - width)
            for event_id in range(lo, lo + width):
                self.live[event_id][1] += 1
            dml.append((UPDATE_EVENTS, (lo, lo + width), width))
        for width in mix.delete_widths:
            lo = self._low
            self._low += width
            for event_id in range(lo, lo + width):
                del self.live[event_id]
            dml.append((DELETE_EVENTS, (lo, lo + width), width))
        for __ in range(mix.instance_updates):
            dml.append((UPDATE_INSTANCE,
                        (SOFTWARE[rng.randrange(len(SOFTWARE))],
                         rng.randrange(self.n_instances)), 1))
        for __ in range(mix.missing_instance_updates):
            dml.append((UPDATE_INSTANCE,
                        (SOFTWARE[rng.randrange(len(SOFTWARE))],
                         -1 - rng.randrange(self.n_instances)), 0))
        width = self.RANGE_WIDTH
        ranges = []
        for __ in range(mix.ranges):
            lo = rng.randrange(self._low, self._next_id - width)
            ranges.append((lo, lo + width))
        return RoundInputs(
            events=events, dml=dml,
            lookups=[(rng.randrange(self.n_instances),)
                     for __ in range(mix.lookups)],
            ranges=ranges,
            scans=[(SCAN_MIN_WEIGHT,)] * mix.scans,
            adhocs=[rng.randrange(ADHOC_LITERALS)
                    for __ in range(mix.adhocs)])

    # -- the model's answers -------------------------------------------------

    def expected_per_instance(self) -> dict[int, tuple[int, int]]:
        """``dst -> (count(*), sum(weight))`` over the live events."""
        totals: dict[int, list[int]] = {}
        for dst, weight in self.live.values():
            entry = totals.get(dst)
            if entry is None:
                totals[dst] = [1, weight]
            else:
                entry[0] += 1
                entry[1] += weight
        return {dst: (blocks, weight) for dst, (blocks, weight)
                in totals.items()}
