"""The process-wide sinks: one bundle with five fixed slots.

Every decision is published (:func:`repro.obs.decision.publish`) to the
metrics registry, capture store, audit ledger, security sentinel and
flight recorder installed here.  Each sink module's public
``get_*``/``set_*`` pair is a one-line view of its slot; the registry
and recorder modules fill theirs on import, the other three are opt-in.
This module imports no sink, so every sink module can import it.
"""

from __future__ import annotations

import threading


class Observers:
    """The installed sinks; reads are plain attribute reads."""

    __slots__ = ("registry", "recorder", "ledger", "sentinel", "capture",
                 "_lock")

    def __init__(self) -> None:
        self.registry = self.recorder = self.ledger = None
        self.sentinel = self.capture = None
        self._lock = threading.Lock()

    def swap(self, slot: str, sink):
        """Install ``sink`` in ``slot``; returns the previous occupant."""
        with self._lock:
            previous = getattr(self, slot)
            setattr(self, slot, sink)
        return previous


#: The one process-wide bundle.
OBSERVERS = Observers()
