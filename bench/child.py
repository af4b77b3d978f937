"""One cold process of the benchmark.

    python bench/child.py import            import the CLI and the registry, exit
    python bench/child.py cli ARGS...       outersix.cli.main(ARGS)
    python bench/child.py check NAME...     verify.run_checks((NAME, ...)) as a report

The parent puts the repository's src/ on PYTHONPATH.
"""

import sys

from outersix import cli, verify


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        return 0
    if mode == "cli":
        return cli.main(rest)
    if mode == "check":
        from workloads import check_report

        results = verify.run_checks(tuple(rest))
        sys.stdout.write(check_report(rest, results))
        return 0 if all(r["passed"] for r in results) else 1
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
