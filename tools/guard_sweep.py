"""Drop-a-guard sweep: is every guard in the package shown able to fire?

A guard site is a `_demand(...)` call made as a statement, or an `if` with
no `else` whose body is the single statement `raise IntegrityError(...)`.

    python tools/guard_sweep.py --list   # one line per site; runs nothing
    python tools/guard_sweep.py          # the sweep

The sweep replaces one site at a time by `pass` in a temporary copy of
`src/` and `tests/`, runs the tier-1 suite there with `-x`, two copies at a
time, and prints every site whose copy still passes: a guard that no test
shows firing.  The copies deselect the layout test that pins the number of
sites, since each of them has one site fewer.  Standard library only; a
full sweep runs each copy's suite once, so it takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2
TIMEOUT_S = 900
COUNT_TEST = "tests/test_layout.py::test_the_guard_sweep_lists_every_site"

# path relative to the root; lines first..last hold the statement alone
Site = namedtuple("Site", "path first last column kind message")


def _called(node: ast.AST, name: str) -> ast.Call | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node if node.func.id == name else None
    return None


def _guard(node: ast.AST) -> tuple[str, ast.AST] | None:
    """(kind, message expression) when node is a guard site."""
    if isinstance(node, ast.Expr) and (call := _called(node.value, "_demand")):
        return "demand", call.args[1]
    if isinstance(node, ast.If) and not node.orelse and len(node.body) == 1:
        body = node.body[0]
        call = isinstance(body, ast.Raise) and _called(body.exc, "IntegrityError")
        if call:
            return "if-raise", call.args[0]
    return None


def guard_sites() -> list[Site]:
    """Every guard site in src/outersix, in file and line order."""
    sites = []
    for path in sorted((ROOT / "src" / "outersix").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if found := _guard(node):
                kind, message = found
                sites.append(Site(
                    path.relative_to(ROOT).as_posix(), node.lineno, node.end_lineno,
                    node.col_offset, kind, ast.unparse(message),
                ))
    return sorted(sites)


def _mutant(site: Site, into: Path) -> None:
    """Copy src/, tests/ and pyproject.toml into `into`, the site as `pass`."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    path = into / site.path
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines[site.first - 1 : site.last] = [" " * site.column + "pass\n"]
    path.write_text("".join(lines), "utf-8")


def _run(site: Site) -> tuple[Site, str, float]:
    """Run the tier-1 suite on the site's mutant: 'killed', 'survived',
    'timeout', or 'error N' when pytest ends with another status N."""
    with tempfile.TemporaryDirectory(prefix="guard-sweep-") as scratch:
        copy = Path(scratch)
        _mutant(site, copy)
        paths = [str(copy / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--deselect", COUNT_TEST,
        ]
        start = time.perf_counter()
        try:
            code = subprocess.run(
                command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            ).returncode
            outcome = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        except subprocess.TimeoutExpired:
            outcome = "timeout"
    return site, outcome, time.perf_counter() - start


def _label(site: Site) -> str:
    return f"{site.path}:{site.first}  {site.kind}  {site.message}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list the sites only")
    args = parser.parse_args(argv)
    sites = guard_sites()
    if args.list:
        print("\n".join(map(_label, sites)))
        return 0
    start, outcomes = time.perf_counter(), []
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for done, (site, outcome, seconds) in enumerate(pool.map(_run, sites), 1):
            print(f"[{done}/{len(sites)}] {outcome:8} {seconds:5.1f} s  "
                  f"{site.path}:{site.first}", file=sys.stderr)
            outcomes.append((site, outcome))
    survivors = [(site, outcome) for site, outcome in outcomes if outcome != "killed"]
    for site, outcome in survivors:
        print(f"{outcome}: {_label(site)}")
    print(f"{len(sites)} guard sites, {len(sites) - len(survivors)} killed, "
          f"{len(survivors)} not killed, in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
