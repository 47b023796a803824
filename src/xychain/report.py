"""Small result/report containers used by the verification layers."""

from dataclasses import dataclass, field

__all__ = ["TOLERANCES", "CheckResult", "CheckReport"]

#: Default tolerance of every named check.  Each library check takes a
#: mapping like this one as its ``tolerances`` argument (default: this one)
#: and reads only its own names; a run configuration's ``"tolerances"``
#: object overrides any of them by name.
TOLERANCES = {
    "relation": 1e-9,
    "constraint": 1e-10,
    "spectrum": 1e-8,
    "svd": 1e-8,
    "recurrence": 1e-8,
    "angle": 1e-8,
    "jw": 1e-8,
    "match": 1e-6,
    "parity": 1e-10,
    "orthogonality": 1e-8,
}


@dataclass
class CheckResult:
    """Outcome of one named numerical check."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"

    def line(self):
        text = f"{self.name}: residual={self.residual:.3e} tol={self.tolerance:.1e} {self.verdict}"
        if self.note:
            text += f"  ({self.note})"
        return text

    def to_dict(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass
class CheckReport:
    """An ordered collection of named checks with an overall verdict."""

    title: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, residual, tolerance, note=""):
        result = CheckResult(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            note=note,
        )
        self.checks.append(result)
        return result

    def add_note(self, text):
        self.notes.append(text)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"== {self.title} =="]
        lines += [c.line() for c in self.checks]
        lines += [f"note: {n}" for n in self.notes]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "title": self.title,
            "overall": "PASS" if self.passed else "FAIL",
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }
