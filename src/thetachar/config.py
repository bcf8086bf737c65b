"""The exception every runtime cross-check in the library raises.

InvariantError is an explicit raise, not an assert, so it survives
python -O; it subclasses AssertionError, which the CLI reports as an
invariant violation with exit code 1.
"""

from __future__ import annotations


class InvariantError(AssertionError):
    """Two routes to one result disagree, or a proven identity failed."""
