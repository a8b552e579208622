"""
Deficit reports: the common result record for every inequality checker, and
the one place where a verdict is decided.

Sign convention: ``slack >= 0`` always means "the inequality holds".  For a
statement lhs <= rhs the slack is rhs - lhs; for a reverse statement
lhs >= rhs it is lhs - rhs (the ``direction`` field records which).  A
hypothesis passes when its signed margin clears its tolerance, margin >=
-tol; an inequality is *asserted* only when every hypothesis passes, and a
report passes at a tolerance when it is not asserted or its slack clears
that tolerance.  Every verdict is derived from the stored numbers, never
stored itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import ParameterError


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    margin: float
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -self.tol)

    def to_dict(self):
        return {"name": self.name, "pass": self.passed,
                "margin": float(self.margin)}


@dataclass(frozen=True)
class DeficitReport:
    inequality: str
    lhs: float
    rhs: float
    sharp_constant: float
    direction: str = "le"  # "le": lhs <= rhs, "ge": lhs >= rhs
    hypotheses: Sequence[HypothesisCheck] = ()
    params: Optional[dict] = None

    def __post_init__(self):
        if self.direction not in ("le", "ge"):
            raise ParameterError(f"unknown direction {self.direction!r}")
        for name in ("lhs", "rhs", "sharp_constant"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "hypotheses", list(self.hypotheses))
        object.__setattr__(self, "params", dict(self.params or {}))

    @property
    def slack(self) -> float:
        return (self.rhs - self.lhs if self.direction == "le"
                else self.lhs - self.rhs)

    @property
    def asserted(self) -> bool:
        """Whether the report claims the inequality (hypotheses all pass)."""
        return all(h.passed for h in self.hypotheses)

    @property
    def holds(self) -> bool:
        return self.slack >= 0

    def passes(self, tol: float) -> bool:
        """Not asserted (a hypothesis failed, so the inequality is not
        claimed), or the slack clears the tolerance."""
        return not self.asserted or self.slack >= -tol

    def to_dict(self):
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "sharp_constant": self.sharp_constant,
            "slack": self.slack,
            "direction": self.direction,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "params": {k: _plain(v) for k, v in self.params.items()},
        }


def _plain(v):
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v
