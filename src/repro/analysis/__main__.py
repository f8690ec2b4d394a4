"""Command-line interface: ``python -m repro.analysis``.

Two subcommands, one per pass::

    # AST lint of user source (UNC2xx)
    python -m repro.analysis lint examples/ [--json] [--output report.json]
                                  [--select UNC201,UNC202] [--enable-unc204]
                                  [--exit-zero]

    # graph diagnostics of a demo or user-supplied network (UNC1xx)
    python -m repro.analysis graph div-by-zero [--json]
    python -m repro.analysis graph mypkg.mymod:build_graph

    # static stream-safety certification of the plan corpus (UNC401)
    python -m repro.analysis certify [target ...] [--json] [--output f.json]

``lint`` exits 1 when any error- or warning-severity finding survives
suppression (pass ``--exit-zero`` to force success, e.g. for advisory CI
steps); ``graph`` exits 1 only on error-severity findings; ``certify``
exits 1 when any plan is not certified: a UNC401 rejection, or a plan
the fused backend cannot compile (opaque, or failed generation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.demos import DEMOS, resolve_target
from repro.analysis.diagnostics import analyze, inferred_supports
from repro.analysis.lint import LintSummary, default_selection, lint_paths
from repro.analysis.report import render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static diagnostics for uncertain computations "
                    "(see docs/analysis.md for the rule catalogue)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="AST lint of user source (UNC2xx rules)")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument("--json", action="store_true", help="emit a JSON report")
    lint.add_argument("--output", type=Path, default=None,
                      help="write the report to a file instead of stdout")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids to enable "
                           "(default: all non-opt-in rules)")
    lint.add_argument("--enable-unc204", action="store_true",
                      help="also run the opt-in implicit-conditional-in-loop "
                           "rule")
    lint.add_argument("--exit-zero", action="store_true",
                      help="always exit 0, even with findings")

    graph = sub.add_parser(
        "graph",
        help="interval diagnostics of a compiled network (UNC1xx rules)",
    )
    graph.add_argument(
        "target",
        help=f"demo name ({', '.join(sorted(DEMOS))}) or a "
             "'module.path:callable' returning an Uncertain",
    )
    graph.add_argument("--json", action="store_true", help="emit a JSON report")
    graph.add_argument("--output", type=Path, default=None,
                       help="write the report to a file instead of stdout")

    certify = sub.add_parser(
        "certify",
        help="static stream-safety certification of compiled plans "
             "(UNC401): fused kernels, nothing executed",
    )
    certify.add_argument(
        "targets", nargs="*",
        help="corpus names or 'module.path:callable' specs; default: the "
             "full built-in corpus (benchmark workloads + demos)",
    )
    certify.add_argument("--json", action="store_true",
                         help="emit a JSON report")
    certify.add_argument("--output", type=Path, default=None,
                         help="write the report to a file instead of stdout")
    certify.add_argument("--exit-zero", action="store_true",
                         help="always exit 0, even when a plan is not certified")
    return parser


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        print(text)
    else:
        output.write_text(text + "\n")


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.select:
        select = frozenset(r.strip().upper() for r in args.select.split(","))
    else:
        select = default_selection(enable_opt_in=args.enable_unc204)
    findings = lint_paths(args.paths, select=select)
    if args.json:
        _emit(render_json(findings, mode="lint", paths=list(args.paths)),
              args.output)
    else:
        _emit(render_text(findings), args.output)
    if args.exit_zero:
        return 0
    return 1 if LintSummary.of(findings).failing else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    value = resolve_target(args.target)
    findings = analyze(value)
    if args.json:
        supports = {
            str(uid): [interval.lower, interval.upper]
            for uid, interval in inferred_supports(value).items()
        }
        _emit(
            render_json(findings, mode="graph", target=args.target,
                        inferred_supports=supports),
            args.output,
        )
    else:
        from repro.core.viz import describe

        lines = [f"network for {args.target!r}:", describe(value), ""]
        lines.append("inferred supports (slot order):")
        for step, interval in zip(value.plan.steps,
                                  _slot_intervals(value)):
            lines.append(
                f"  slot {step.slot:>3}  {step.node.label:<20} {interval}"
            )
        lines.append("")
        lines.append(render_text(findings))
        _emit("\n".join(lines), args.output)
    return 1 if any(f.severity == "error" for f in findings) else 0


def _slot_intervals(value):
    from repro.analysis.intervals import infer_intervals

    return infer_intervals(value.plan)


def _cmd_certify(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.certify import certify_value
    from repro.analysis.demos import CERTIFY_CORPUS
    from repro.analysis.report import (
        render_certification_json,
        render_certification_text,
    )

    targets = args.targets or sorted(CERTIFY_CORPUS)
    reports: dict[str, dict] = {}
    for target in targets:
        value = resolve_target(target, registry=CERTIFY_CORPUS)
        start = time.perf_counter()
        report = certify_value(value)
        report["elapsed_ms"] = (time.perf_counter() - start) * 1e3
        reports[target] = report
    if args.json:
        _emit(render_certification_json(reports), args.output)
    else:
        _emit(render_certification_text(reports), args.output)
    if args.exit_zero:
        return 0
    return 1 if any(r["status"] != "certified" for r in reports.values()) else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "certify":
        return _cmd_certify(args)
    return _cmd_graph(args)


if __name__ == "__main__":
    sys.exit(main())
