"""Run configuration shared by the CLI and the verification suite.

InvariantError is the exception every runtime cross-check in the library
raises.  It is an explicit raise, not an assert, so it survives python -O;
it subclasses AssertionError, which the CLI reports as an invariant
violation with exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace


class InvariantError(AssertionError):
    """Two routes to one result disagree, or a proven identity failed."""


def check_tolerance(tol: float) -> None:
    """The range of an absolute theta tolerance, for RunConfig and Tolerance."""
    if not 1e-13 < tol < 1.0:
        raise ValueError(
            f"tolerance must be in (1e-13, 1), 1e-13 being the double precision floor; got {tol}"
        )


@dataclass(frozen=True)
class RunConfig:
    """Knobs for numeric tolerance, output format and reproducibility.

    tolerance        absolute tolerance handed to the theta evaluator;
                     must lie in (1e-13, 1), see check_tolerance.
    output           "json" or "table".
    seed             seed for every randomized check; identical seeds must
                     produce byte-identical reports.
    """

    tolerance: float = 1e-12
    output: str = "json"
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, (int, float)):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        check_tolerance(self.tolerance)
        if self.output not in ("json", "table"):
            raise ValueError(f"output must be 'json' or 'table', got {self.output!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Load overrides from a JSON file; unknown keys are rejected."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        known = {"tolerance", "output", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return replace(cls(), **data)

    def override(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)

