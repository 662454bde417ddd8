"""The ftlint command line.

::

    python tools/ftlint.py src tests                  # default: fail on new
    python tools/ftlint.py src --format json          # machine-readable
    python tools/ftlint.py src --format sarif         # code-scanning upload
    python tools/ftlint.py src --fail-on any          # ignore the baseline
    python tools/ftlint.py src tests --write-baseline # regenerate baseline
    python tools/ftlint.py --list-rules

Exit status: 0 clean, 1 findings per ``--fail-on`` policy, 2 bad usage.
A ``PARSE`` pseudo-finding (unparseable file) always fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.ftlint import rules as _rules  # noqa: F401  (registers)
from repro.analysis.ftlint import flowrules as _flowrules  # noqa: F401
from repro.analysis.ftlint.baseline import (
    Baseline, load_baseline, split_by_baseline, write_baseline,
)
from repro.analysis.ftlint.core import all_rules, analyze_paths
from repro.analysis.ftlint.reporters import (
    render_human, render_json, render_rule_list, render_sarif,
)

DEFAULT_BASELINE = ".ftlint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftlint",
        description=(
            "protocol- and determinism-aware static analysis for the "
            "GASPI fault-tolerance reproduction (rules FT001-FT010; "
            "see ANALYSIS.md)"
        ),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", help="report format")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help=f"baseline file (default: {DEFAULT_BASELINE} "
                             f"if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the new baseline")
    parser.add_argument("--fail-on", choices=("any", "new"), default="new",
                        help="fail on all findings, or only on findings "
                             "absent from the baseline (default: new)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--show-baselined", action="store_true",
                        help="also list baselined findings (human format)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe the registered rules and exit")
    return parser


def _pick_rules(select: Optional[str], ignore: Optional[str]):
    chosen = all_rules()
    if select:
        wanted = {r.strip().upper() for r in select.split(",") if r.strip()}
        unknown = wanted - {rule.id for rule in chosen}
        if unknown:
            raise SystemExit(
                f"ftlint: unknown rule id(s): {', '.join(sorted(unknown))}"
            )
        chosen = [rule for rule in chosen if rule.id in wanted]
    if ignore:
        dropped = {r.strip().upper() for r in ignore.split(",") if r.strip()}
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def _resolve_baseline(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE)
    return default if default.exists() or args.write_baseline else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("ftlint: error: no paths given", file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"ftlint: error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        selected = _pick_rules(args.select, args.ignore)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    result = analyze_paths(args.paths, rules=selected)
    parse_errors = [f for f in result.findings if f.rule == "PARSE"]

    baseline_path = _resolve_baseline(args)
    if args.write_baseline:
        if baseline_path is None:
            baseline_path = Path(DEFAULT_BASELINE)
        clean = [f for f in result.findings if f.rule != "PARSE"]
        n = write_baseline(baseline_path, clean)
        print(f"ftlint: wrote {n} baseline entr"
              f"{'ies' if n != 1 else 'y'} "
              f"({len(clean)} finding{'s' if len(clean) != 1 else ''}) "
              f"to {baseline_path}")
        return 0 if not parse_errors else 1

    baseline = Baseline()
    if baseline_path is not None and baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, KeyError, OSError) as exc:
            print(f"ftlint: error: cannot read baseline "
                  f"{baseline_path}: {exc}", file=sys.stderr)
            return 2

    new, baselined, stale = split_by_baseline(result.findings, baseline)

    if args.format == "json":
        print(render_json(new, baselined, stale, result.n_files))
    elif args.format == "sarif":
        print(render_sarif(new, baselined))
    else:
        print(render_human(new, baselined, stale, result.n_files,
                           show_baselined=args.show_baselined))

    if parse_errors:
        return 1
    if args.fail_on == "any":
        return 1 if (new or baselined) else 0
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tools/ftlint.py
    sys.exit(main())
