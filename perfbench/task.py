"""The unit of work every workload hands to the timing loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Task:
    """One timed call and the check of its output.

    ``run`` is the only part that is timed.  ``check`` runs right after
    it, outside the timed region, and returns a list of error strings
    (empty when the output is right).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def mismatch(label, what, got, want):
    return f"{label}: {what} is {got!r}, expected {want!r}"
