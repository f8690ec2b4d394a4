"""Text and JSON rendering of analysis diagnostics.

Both passes produce :class:`~repro.analysis.diagnostics.Diagnostic`
records; this module turns them into the two consumer formats — a
human-readable listing (one line per finding, ``path:line:col`` prefixes
for lints, slot references for graph findings) and a JSON document stable
enough for CI artifacts.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic

JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Diagnostic]) -> str:
    """One line per finding plus a closing summary line."""
    lines = [
        f"{finding.location()}: {finding.rule} {finding.severity}: {finding.message}"
        for finding in findings
    ]
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    if findings:
        summary = ", ".join(
            f"{counts[sev]} {sev}(s)" for sev in ("error", "warning", "info")
            if sev in counts
        )
        lines.append(f"found {len(findings)} issue(s): {summary}")
    else:
        lines.append("no issues found")
    return "\n".join(lines)


def render_json(findings: Iterable[Diagnostic], **meta) -> str:
    """JSON document: ``{"version": 1, "findings": [...], ...meta}``."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.as_dict() for finding in findings],
    }
    payload.update(meta)
    return json.dumps(payload, indent=2, sort_keys=True)


def render_certification_text(reports: dict[str, dict]) -> str:
    """Human-readable listing of per-target certification reports.

    ``reports`` maps target name to the dict produced by
    :func:`repro.analysis.certify.certify_value` (plus optional
    ``elapsed_ms``).  One block per target, one line per record, and a
    closing tally of certified / fallback / rejected verdicts.
    """
    lines: list[str] = []
    tally = {"certified": 0, "fallback": 0, "rejected": 0}
    for name, report in reports.items():
        tally[report["status"]] = tally.get(report["status"], 0) + 1
        timing = (f", {report['elapsed_ms']:.3f} ms"
                  if "elapsed_ms" in report else "")
        lines.append(
            f"{name}: {report['status']} "
            f"({report['slots']} slot(s){timing})"
        )
        for record in report["records"]:
            rule = f" [{record['rule']}]" if record.get("rule") else ""
            lines.append(
                f"  {record['name']}: {record['status']}{rule} — "
                + "; ".join(record["reasons"])
            )
    lines.append(
        f"certified {tally['certified']}, fallback {tally['fallback']}, "
        f"rejected {tally['rejected']} of {len(reports)} plan(s)"
    )
    return "\n".join(lines)


def render_certification_json(reports: dict[str, dict]) -> str:
    """JSON document for the CI artifact: per-target certification."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "mode": "certify",
        "targets": reports,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
