"""Common result type for the three estimation routes."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

METHOD_ANALYTICAL = "analytical"
METHOD_INTERVAL_UPPER = "interval_upper"
METHOD_POINT_LOWER = "point_lower"

MODE_MAX = "max"
MODE_SQRT = "sqrt"


@dataclass(frozen=True)
class LipschitzEstimate:
    value: float
    method: str                     # analytical | interval_upper | point_lower
    mode: str                       # max | sqrt
    gap: float | None = None        # present only for interval_upper
    effort: int = 0                 # boxes processed / samples used
    per_class: Mapping[str, float] | None = None   # pipes/pumps/valves (analytical), read-only

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("estimate value must be nonnegative")
        if (self.gap is not None) != (self.method == METHOD_INTERVAL_UPPER):
            raise ValueError("gap must be present exactly for interval_upper estimates")
        if self.gap is not None and self.gap < 0:
            raise ValueError("gap must be nonnegative")
        if self.per_class is not None:
            object.__setattr__(self, "per_class", MappingProxyType(dict(self.per_class)))

    def to_dict(self) -> dict:
        doc: dict = {
            "value": self.value,
            "method": self.method,
            "mode": self.mode,
            "gap": self.gap,
            "effort": self.effort,
        }
        if self.per_class is not None:
            doc["per_class"] = {k: self.per_class[k] for k in ("pipes", "pumps", "valves")}
        return doc
