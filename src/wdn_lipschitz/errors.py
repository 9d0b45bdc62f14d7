"""Exception taxonomy shared across the package.

Each class carries the CLI's exit code and stderr label for it; the README
lists them under "Exit codes".
"""

from __future__ import annotations


class WdnError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class InpError(WdnError):
    """A problem with an INP input file."""

    exit_code = 2
    label = "input error"


class MalformedSection(InpError):
    def __init__(self, section: str, line_no: int, line: str, reason: str):
        self.section = section
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"{section} line {line_no}: {reason}: {line!r}")


class MissingRequiredSection(InpError):
    def __init__(self, section: str):
        self.section = section
        super().__init__(f"required section {section} is absent")


class UnknownNodeRef(InpError):
    def __init__(self, node_id: str, link_id: str | None = None):
        self.node_id = node_id
        self.link_id = link_id
        where = f" (referenced by link {link_id!r})" if link_id else ""
        super().__init__(f"undeclared node {node_id!r}{where}")


class DuplicateId(InpError):
    def __init__(self, object_id: str, section: str):
        self.object_id = object_id
        self.section = section
        super().__init__(f"duplicate id {object_id!r} in {section}")


class BoundsError(WdnError):
    """A problem with a flow-bounds file or bounds construction."""

    exit_code = 3
    label = "bounds error"


class MissingLink(BoundsError):
    def __init__(self, link_id: str):
        self.link_id = link_id
        super().__init__(f"no bounds given for link {link_id!r}")


class UnknownLink(BoundsError):
    def __init__(self, link_id: str):
        self.link_id = link_id
        super().__init__(f"bounds given for unknown link {link_id!r}")


class DuplicateLink(BoundsError):
    def __init__(self, link_id: str):
        self.link_id = link_id
        super().__init__(f"link {link_id!r} appears more than once")


class InvertedInterval(BoundsError):
    def __init__(self, link_id: str, lo: float, hi: float):
        self.link_id = link_id
        super().__init__(f"link {link_id!r}: q_min {lo} > q_max {hi}")


class NoPumps(BoundsError):
    def __init__(self) -> None:
        super().__init__("network has no pumps; a default flow box cannot be inferred")


class AssumptionError(WdnError):
    """A modelling assumption (positive resistances, pump flow direction,
    exponent ranges, speeds/openness in (0,1]) is violated."""

    exit_code = 4
    label = "assumption violation"


class ParameterOutOfRange(AssumptionError):
    """A parameter outside the range the model assumes."""


class PumpNonpositiveLower(AssumptionError):
    def __init__(self, link_id: str, lo: float):
        self.link_id = link_id
        super().__init__(f"pump {link_id!r}: lower flow bound must be > 0, got {lo}")


class NonPositiveFlow(AssumptionError):
    def __init__(self, link_id: str, q: float):
        self.link_id = link_id
        super().__init__(f"pump {link_id!r}: flow must be > 0, got {q}")


class UsageError(WdnError):
    """A request the package cannot serve as asked: a command-line choice
    or a sample count or dimension past a sequence's limits."""

    exit_code = 2
    label = "usage error"


class DimensionTooLarge(UsageError):
    def __init__(self, wanted: int, available: int):
        self.wanted = wanted
        self.available = available
        super().__init__(
            f"sequence dimension {wanted} exceeds the {available} dimensions "
            f"of the shipped direction-number table"
        )


class SampleCountTooLarge(UsageError, ValueError):
    """More points asked of a sequence than its index arithmetic covers:
    Sobol's 32-bit states index 1..2**32-1, Halton's int64 digits up to
    2**63-1."""

    def __init__(self, kind: str, wanted: int, available: int):
        self.kind = kind
        self.wanted = wanted
        self.available = available
        super().__init__(f"{wanted} {kind} points requested; the sequence indexes "
                         f"at most {available}")
