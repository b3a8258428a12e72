"""Seeded violation: an accumulator missing part of the protocol."""


class Accumulator:
    """Stand-in for repro.engine.aggregates.Accumulator."""

    def insert(self, value):
        raise NotImplementedError

    def retract(self, value):
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError


class HalfSumAccumulator(Accumulator):
    # VIOLATION: no retract — the first retraction-bearing delta
    # hits NotImplementedError at refresh time.

    def __init__(self):
        self.total = 0

    def insert(self, value):
        if value is not None:
            self.total += value

    def finalize(self):
        return self.total
