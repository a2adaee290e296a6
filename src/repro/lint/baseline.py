"""Committed finding baseline (``lint-baseline.json``).

The baseline lets the lint gate be adopted on a tree with pre-existing
findings: known findings are recorded by fingerprint and stop failing CI,
while any *new* finding still fails.  Fingerprints hash line content, not
line numbers, so unrelated edits do not churn the file.  The shipped
baseline is empty -- every live finding was either fixed or excused with a
reasoned pragma -- but the mechanism is load-bearing for future adoptions.

Entries that no longer match any current finding are *stale*: the finding
was fixed (or its line rewritten) and the excuse should be retired.  The
engine reports stale entries and ``--prune-baseline`` rewrites the file
without them, so the baseline can only ever shrink on a healthy tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Set

from repro.core import shape
from repro.lint.findings import Finding

BASELINE_SCHEMA = "repro-lint-baseline-v1"
DEFAULT_BASELINE_NAME = "lint-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One excused finding: its checker, file and content fingerprint."""

    code: str
    path: str
    fingerprint: str

    def to_dict(self) -> dict:
        return {"code": self.code, "path": self.path, "fingerprint": self.fingerprint}


BASELINE_SHAPE = shape.Obj(
    schema=shape.Literal(BASELINE_SCHEMA),
    findings=shape.ListOf(
        shape.Obj(
            code=shape.NAME,
            path=shape.NAME,
            fingerprint=shape.NAME,
        )
    ),
)


def load_baseline_entries(path: Path) -> List[BaselineEntry]:
    """Entries recorded in ``path`` (empty list if absent); validates shape."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"baseline {path} is not valid JSON: {error}") from error
    shape.check_shape(BASELINE_SHAPE, payload, f"invalid {BASELINE_SCHEMA} baseline {path}")
    return [BaselineEntry(**raw) for raw in payload["findings"]]


def load_baseline(path: Path) -> Set[str]:
    """Fingerprints recorded in ``path`` (empty set if absent)."""
    return {entry.fingerprint for entry in load_baseline_entries(path)}


def save_baseline(path: Path, findings: Iterable[Finding]) -> None:
    """Write every finding's fingerprint to ``path`` (canonical JSON)."""
    entries = [
        BaselineEntry(code=f.code, path=f.path, fingerprint=f.fingerprint)
        for f in findings
    ]
    save_baseline_entries(path, entries)


def save_baseline_entries(path: Path, entries: Sequence[BaselineEntry]) -> None:
    """Rewrite ``path`` holding exactly ``entries`` (canonical JSON)."""
    rows = sorted(
        (entry.to_dict() for entry in entries),
        key=lambda e: (e["path"], e["code"], e["fingerprint"]),
    )
    payload = {"schema": BASELINE_SCHEMA, "findings": rows}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def stale_entries(
    entries: Sequence[BaselineEntry], findings: Sequence[Finding]
) -> List[BaselineEntry]:
    """Entries whose fingerprint matches no current finding."""
    live = {f.fingerprint for f in findings}
    return [entry for entry in entries if entry.fingerprint not in live]


def apply_baseline(findings: List[Finding], fingerprints: Set[str]) -> List[Finding]:
    """Mark findings whose fingerprint is baselined; returns a new list."""
    marked: List[Finding] = []
    for finding in findings:
        if finding.fingerprint in fingerprints and not finding.baselined:
            finding = Finding(
                code=finding.code,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                snippet=finding.snippet,
                occurrence=finding.occurrence,
                baselined=True,
            )
        marked.append(finding)
    return marked
