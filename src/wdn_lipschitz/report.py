"""Analysis report: the structured result of a CLI run.

Reports serialize to JSON with a stable key order and validate against the
schema shipped in data/report_schema.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .estimates import LipschitzEstimate
from .inp import COMPONENTS
from .network import Network

SCHEMA_VERSION = "wdn-lipschitz-report/2"

ESTIMATE_KEYS = ("analytical", "osl", "interval_max", "interval_sqrt",
                 "point_max", "point_sqrt")


def load_report_schema() -> dict:
    text = resources.files("wdn_lipschitz.data").joinpath("report_schema.json").read_text()
    return json.loads(text)


@dataclass
class AnalysisReport:
    network_name: str
    counts: tuple[int, int, int, int, int, int]
    config: dict
    estimates: dict[str, LipschitzEstimate] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @classmethod
    def for_network(cls, name: str, net: Network, config: dict) -> "AnalysisReport":
        return cls(network_name=name, counts=net.desc.component_counts(), config=config)

    def add(self, key: str, estimate: LipschitzEstimate, seconds: float) -> None:
        if key not in ESTIMATE_KEYS:
            raise ValueError(f"unknown estimate key {key!r}")
        self.estimates[key] = estimate
        self.timings_s[key] = max(0.0, seconds)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "network": {
                "name": self.network_name,
                "counts": dict(zip(COMPONENTS, self.counts)),
            },
            "config": self.config,
            "estimates": {key: self.estimates[key].to_dict()
                          for key in ESTIMATE_KEYS if key in self.estimates},
            "timings_s": {key: self.timings_s[key]
                          for key in ESTIMATE_KEYS if key in self.timings_s},
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        lines = [
            f"network      {self.network_name}",
            "components   " + ", ".join(f"{count} {name}"
                                        for name, count in zip(COMPONENTS, self.counts)),
            "",
            f"{'estimate':<14} {'mode':<5} {'value':>14} {'gap':>12} "
            f"{'effort':>9} {'time [s]':>9}",
        ]
        for key in ESTIMATE_KEYS:
            if key not in self.estimates:
                continue
            est = self.estimates[key]
            gap = f"{est.gap:.3e}" if est.gap is not None else "-"
            lines.append(
                f"{key:<14} {est.mode:<5} {est.value:>14.6g} {gap:>12} "
                f"{est.effort:>9} {self.timings_s.get(key, 0.0):>9.3f}"
            )
        per_class = self.estimates.get("analytical")
        if per_class is not None and per_class.per_class is not None:
            pc = per_class.per_class
            lines.append("")
            lines.append(
                f"per class    pipes {pc['pipes']:.6g}   pumps {pc['pumps']:.6g}"
                f"   valves {pc['valves']:.6g}"
            )
        if self.warnings:
            lines.append("")
            for warning in self.warnings:
                lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"

    def to_csv_row(self, keys: tuple[str, ...] = ESTIMATE_KEYS) -> dict[str, str]:
        row = {"network": self.network_name,
               **{name: str(count) for name, count in zip(COMPONENTS, self.counts)}}
        for key in keys:
            row[key] = repr(self.estimates[key].value) if key in self.estimates else ""
        return row
