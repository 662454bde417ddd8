"""Finding reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from repro.analysis.ftlint.baseline import fingerprint
from repro.analysis.ftlint.core import Finding, all_rules


def render_human(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[dict],
    n_files: int,
    show_baselined: bool = False,
) -> str:
    """The default terminal report."""
    lines: List[str] = []
    for finding in new:
        lines.append(
            f"{finding.location()}: {finding.rule} [{finding.symbol}] "
            f"{finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if show_baselined:
        for finding in baselined:
            lines.append(
                f"{finding.location()}: {finding.rule} [baselined] "
                f"{finding.message}"
            )
    for entry in stale:
        lines.append(
            f"stale baseline entry {entry.get('fingerprint', '?')}: "
            f"{entry.get('path', '?')} {entry.get('rule', '?')} "
            f"[{entry.get('symbol', '?')}] no longer found — "
            f"regenerate with --write-baseline"
        )
    by_rule = Counter(f.rule for f in new)
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
    lines.append(
        f"ftlint: {len(new)} finding{'s' if len(new) != 1 else ''}"
        f"{' (' + summary + ')' if summary else ''}, "
        f"{len(baselined)} baselined, {len(stale)} stale baseline "
        f"entr{'ies' if len(stale) != 1 else 'y'}, "
        f"{n_files} file{'s' if n_files != 1 else ''} checked"
    )
    return "\n".join(lines)


def render_json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[dict],
    n_files: int,
) -> str:
    """Stable machine-readable report (one JSON document)."""

    def encode(finding: Finding, status: str) -> dict:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col + 1,
            "symbol": finding.symbol,
            "message": finding.message,
            "snippet": finding.snippet,
            "fingerprint": fingerprint(finding),
            "status": status,
        }

    payload = {
        "tool": "ftlint",
        "files_checked": n_files,
        "findings": (
            [encode(f, "new") for f in new]
            + [encode(f, "baselined") for f in baselined]
        ),
        "stale_baseline_entries": list(stale),
        "summary": {
            "new": len(new),
            "baselined": len(baselined),
            "stale": len(stale),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_sarif(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
) -> str:
    """SARIF 2.1.0 — one run, one result per finding, so CI can upload
    the report and surface findings as code-scanning annotations.

    Baselined findings are carried with ``baselineState: unchanged`` and
    suppressed level so only *new* findings annotate a pull request;
    ``partialFingerprints`` reuses the baseline fingerprint, letting the
    scanning backend track a finding across commits exactly as the
    local baseline file does.
    """
    rule_meta = {rule.id: rule for rule in all_rules()}
    rule_ids = sorted(
        {f.rule for f in new} | {f.rule for f in baselined} | set(rule_meta)
    )

    def rule_entry(rule_id: str) -> dict:
        rule = rule_meta.get(rule_id)
        entry: dict = {"id": rule_id}
        if rule is not None:
            entry["shortDescription"] = {"text": rule.title}
            entry["fullDescription"] = {"text": rule.rationale}
        elif rule_id == "PARSE":
            entry["shortDescription"] = {"text": "file does not parse"}
        elif rule_id == "PRAGMA":
            entry["shortDescription"] = {
                "text": "stale ftlint suppression pragma"}
        return entry

    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    def result(finding: Finding, status: str) -> dict:
        payload: dict = {
            "ruleId": finding.rule,
            "ruleIndex": index[finding.rule],
            "level": "error" if status == "new" else "note",
            "message": {"text": f"[{finding.symbol}] {finding.message}"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                        **({"snippet": {"text": finding.snippet}}
                           if finding.snippet else {}),
                    },
                },
            }],
            "partialFingerprints": {
                "ftlintFingerprint/v1": fingerprint(finding),
            },
        }
        if status == "baselined":
            payload["baselineState"] = "unchanged"
            payload["suppressions"] = [{"kind": "external",
                                        "justification": "ftlint baseline"}]
        return payload

    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "ftlint",
                    "rules": [rule_entry(rule_id) for rule_id in rule_ids],
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///./"}},
            "results": (
                [result(f, "new") for f in new]
                + [result(f, "baselined") for f in baselined]
            ),
        }],
    }
    return json.dumps(document, indent=2, sort_keys=False)


def render_rule_list() -> str:
    """``--list-rules`` output."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)
