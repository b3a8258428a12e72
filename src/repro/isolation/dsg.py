"""The Direct Serialization Graph with derivation-extended dependencies.

Section 4 of the paper extends Adya's three dependency kinds so they trace
*through* derived values:

* **read-dependency** — "Tj directly item-read-depends on Ti if Ti installs
  some object version xi and Tj reads xi (prior definition), or if Ti
  installs yk, Tj reads xi, and xi derives from yk."
* **anti-dependency** — "... or if Ti reads some object version xk, xk
  derives from an object version ym, and Tj installs y's next version
  (after ym)."
* **write-dependency** — "... or if Ti installs xi, Tj installs yj, and
  there exist consecutive versions zk ≪ zm such that zk derives from xi
  and zm derives from yj."

Crucially, *installing a version by derivation creates no dependency on
the deriving transaction* (Theorem 1: dependencies are "agnostic to which
transaction contains the derivation operation"); the derivation acts as an
intermediary connecting readers with the transactions that **wrote** the
underlying values. This is what removes refresh transactions from the DSG
in the paper's Figure 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isolation.history import Derive, History, Version, Write


class DependencyKind(enum.Enum):
    WRITE = "ww"
    READ = "wr"
    ANTI = "rw"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Edge:
    """A DSG edge: ``target`` depends on ``source`` (source → target)."""

    source: int
    target: int
    kind: DependencyKind
    reason: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.source} -{self.kind.value}-> T{self.target}"


class DirectSerializationGraph:
    """The DSG of a history, over committed transactions."""

    def __init__(self, history: History):
        self.history = history
        self.edges: set[Edge] = set()
        self.nodes: set[int] = set(history.committed)
        self._build()

    # -- construction ----------------------------------------------------------------

    def _add(self, source: int, target: int, kind: DependencyKind,
             reason: str) -> None:
        if source == target:
            return
        if source not in self.history.committed:
            return
        if target not in self.history.committed:
            return
        self.edges.add(Edge(source, target, kind, reason))

    def _build(self) -> None:
        self._read_dependencies()
        self._anti_dependencies()
        self._write_dependencies()
        # Transactions whose only operations are derivations contribute no
        # edges; they remain isolated nodes ("this removes the refresh
        # transactions from the DSG", Figure 2 discussion).

    def _read_dependencies(self) -> None:
        for read in self.history.reads:
            if read.txn not in self.history.committed:
                continue
            installer = self.history.installer_of(read.version)
            if isinstance(installer, Write):
                self._add(installer.txn, read.txn, DependencyKind.READ,
                          f"T{read.txn} reads {read.version!r}")
            elif isinstance(installer, Derive):
                for base in self.history.base_versions_of(read.version):
                    writer = self.history.writer_of(base)
                    if writer is not None:
                        self._add(
                            writer, read.txn, DependencyKind.READ,
                            f"T{read.txn} reads {read.version!r} which "
                            f"derives from {base!r}")

    def _anti_dependencies(self) -> None:
        for read in self.history.reads:
            if read.txn not in self.history.committed:
                continue
            # Direct: the next version of the read object, if written.
            self._anti_for(read.txn, read.version, read.version)
            # Extended: next versions of every base version the read value
            # derives from.
            installer = self.history.installer_of(read.version)
            if isinstance(installer, Derive):
                for base in self.history.base_versions_of(read.version):
                    self._anti_for(read.txn, read.version, base)

    def _anti_for(self, reader: int, read_version: Version,
                  overwritten: Version) -> None:
        successor = self.history.next_version(overwritten)
        if successor is None:
            return
        writer = self.history.writer_of(successor)
        if writer is not None:
            self._add(reader, writer, DependencyKind.ANTI,
                      f"T{reader} read {read_version!r}; T{writer} "
                      f"installed {successor!r} overwriting {overwritten!r}")

    def _write_dependencies(self) -> None:
        for obj in self.history.version_order:
            for earlier, later in self.history.consecutive_pairs(obj):
                earlier_event = self.history.installer_of(earlier)
                later_event = self.history.installer_of(later)
                if isinstance(earlier_event, Write) and isinstance(
                        later_event, Write):
                    self._add(earlier_event.txn, later_event.txn,
                              DependencyKind.WRITE,
                              f"{earlier!r} << {later!r}")
                elif isinstance(earlier_event, Derive) or isinstance(
                        later_event, Derive):
                    # Extended rule: relate the writers behind consecutive
                    # derived versions.
                    for base_earlier in self.history.base_versions_of(earlier):
                        for base_later in self.history.base_versions_of(later):
                            source = self.history.writer_of(base_earlier)
                            target = self.history.writer_of(base_later)
                            if source is not None and target is not None:
                                self._add(
                                    source, target, DependencyKind.WRITE,
                                    f"{earlier!r} << {later!r} derive from "
                                    f"{base_earlier!r}, {base_later!r}")

    # -- analysis --------------------------------------------------------------------

    def edges_of_kinds(self, kinds: set[DependencyKind]) -> list[Edge]:
        return [edge for edge in self.edges if edge.kind in kinds]

    def cycles(self, kinds: set[DependencyKind] | None = None,
               ) -> list[list[int]]:
        """Elementary cycles in the subgraph restricted to ``kinds``
        (all kinds if None). Returns each cycle as a list of txn ids."""
        if kinds is None:
            kinds = set(DependencyKind)
        adjacency: dict[int, set[int]] = {node: set() for node in self.nodes}
        for edge in self.edges_of_kinds(kinds):
            adjacency[edge.source].add(edge.target)

        cycles: list[list[int]] = []
        seen_signatures: set[tuple[int, ...]] = set()

        def search(start: int, current: int, path: list[int],
                   on_path: set[int]) -> None:
            for successor in sorted(adjacency[current]):
                if successor == start and len(path) >= 1:
                    signature = tuple(sorted(path))
                    if signature not in seen_signatures:
                        seen_signatures.add(signature)
                        cycles.append(list(path))
                elif successor not in on_path and successor > start:
                    path.append(successor)
                    on_path.add(successor)
                    search(start, successor, path, on_path)
                    on_path.discard(successor)
                    path.pop()

        for node in sorted(self.nodes):
            search(node, node, [node], {node})
        return cycles

    def cycle_edges(self, cycle: list[int]) -> list[Edge]:
        """One witness edge per hop of a cycle."""
        witness: list[Edge] = []
        for position, source in enumerate(cycle):
            target = cycle[(position + 1) % len(cycle)]
            candidates = [edge for edge in self.edges
                          if edge.source == source and edge.target == target]
            # Prefer non-anti edges for readability; any edge witnesses.
            candidates.sort(key=lambda edge: edge.kind == DependencyKind.ANTI)
            if candidates:
                witness.append(candidates[0])
        return witness

    def has_cycle(self, kinds: set[DependencyKind] | None = None) -> bool:
        return bool(self.cycles(kinds))

    def pretty(self) -> str:
        lines = [f"nodes: {sorted(self.nodes)}"]
        # ``reason`` is part of edge identity (two ww edges between the
        # same pair on different objects), so it must be part of the order.
        for edge in sorted(self.edges,
                           key=lambda e: (e.source, e.target, e.kind.value,
                                          e.reason)):
            lines.append(f"  {edge!r}  [{edge.reason}]")
        return "\n".join(lines)
