"""Clean fixture: scheduler code with a *justified* wall-clock read.

The pragma on the read suppresses the finding and the effect at its
source, so nothing propagates to ``tick`` — the analyzer must stay
silent here, proving the clean-exit path, pragma suppression, and that
a used pragma is not reported as stale.
"""

import threading
import time


class State:
    def __init__(self) -> None:
        self.mutex = threading.Lock()
        self.ticks = 0

    def bump(self) -> None:
        with self.mutex:
            self.ticks += 1


def stamp() -> float:
    return time.time()  # eng: allow-ENG001 (fixture: justified read)


def tick(state: State) -> None:
    state.bump()
    stamp()
