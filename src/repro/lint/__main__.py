"""Command-line entry point: ``python -m repro.lint [paths...]``."""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import default_rules, lint_paths, render_text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis (reprolint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.name}")
            print(f"        {rule.rationale}")
        return 0

    violations, files_checked = lint_paths(args.paths)
    print(render_text(violations, files_checked))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
