"""Source layout: the column limit the package and its tests keep, the
package's line budget, its guard sites, its caches, each kept because a
benchmark workload asks for its result again, the split of the claim
registry into two lanes that share no cache, and the layers each command
and check loads in a fresh interpreter."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import outersix
from outersix import verify

MAX_COLUMNS = 88
MAX_PACKAGE_LINES = 2_608  # a change that adds lines brings its own offset
GUARD_SITES = 66  # tools/guard_sweep.py shows each of them firing
ROOT = Path(__file__).resolve().parents[1]


def test_no_line_is_over_the_column_limit():
    files = sorted((ROOT / "src" / "outersix").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    assert any(f.name == "autgroup.py" for f in files)  # the glob found the package
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for path in files
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def test_the_package_stays_within_its_line_budget():
    files = sorted((ROOT / "src" / "outersix").glob("*.py"))
    assert any(f.name == "autgroup.py" for f in files)  # the glob found the package
    lines = sum(len(f.read_text("utf-8").splitlines()) for f in files)
    assert lines <= MAX_PACKAGE_LINES


def test_the_guard_sweep_lists_every_site():
    """A new guard raises this count, and comes with the PLANTS row or unit
    test that shows it firing; the sweep confirms that none survives."""
    tool = ROOT / "tools" / "guard_sweep.py"
    command = [sys.executable, str(tool), "--list"]
    listing = subprocess.run(command, capture_output=True, text=True, check=True)
    assert len(listing.stdout.splitlines()) == GUARD_SITES


CACHES = {
    "autgroup.sym", "autgroup.enumerate_automorphisms", "autgroup._conjugators",
    "autgroup.inner_and_outer", "involutions._product_orders",
    "icosahedron.dual_pair_table", "k6.tutte_graph",
    "correspondence.cage_automorphisms",
}


def test_the_package_keeps_exactly_the_listed_caches():
    found = set()
    for info in pkgutil.iter_modules(outersix.__path__):
        module = importlib.import_module(f"outersix.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")
            and getattr(value, "__module__", None) == module.__name__
        }
    assert found == CACHES


def test_the_two_check_lanes_fill_disjoint_caches():
    """verify-all runs SECOND_PROCESS in a forked child; a cache that both
    lanes filled would be built twice, once in each process."""
    assert set(verify.SECOND_PROCESS) <= {name for name, _ in verify.CHECKS}
    caches = {  # imported here: importing verify loads none of these layers
        name: getattr(importlib.import_module(f"outersix.{module}"), function)
        for name in CACHES
        for module, function in [name.split(".")]
    }
    filled = []
    for in_second in (False, True):
        for cache in caches.values():
            cache.cache_clear()
        lane = [
            check for check in verify.CHECKS
            if (check[0] in verify.SECOND_PROCESS) == in_second
        ]
        assert all(r["passed"] for r in verify._run(lane))  # in this process
        filled.append({n for n, c in caches.items() if c.cache_info().currsize})
    sym6_lane, second_lane = filled
    assert sym6_lane and second_lane
    assert sym6_lane.isdisjoint(second_lane)


# What `import outersix.cli, outersix.verify` loads: the two front ends and
# the layers every path reads.
LIGHT = {"cli", "errors", "perms", "verify"}


def _layers_loaded(package_env, run: str) -> set[str]:
    """The outersix modules a fresh interpreter holds after importing the CLI
    and the registry and then running `run`, with its output discarded."""
    script = (
        "import contextlib, io, sys\n"
        "from outersix import cli, verify\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {run}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('outersix.')))\n"
    )
    command = [sys.executable, "-c", script]
    child = subprocess.run(
        command, env=package_env, capture_output=True, text=True, check=True
    )
    return {name.removeprefix("outersix.") for name in child.stdout.split()}


@pytest.mark.parametrize(
    "argv, added",
    [
        (None, set()),
        (["classes", "--n", "6"], set()),
        (["lemma2", "--n-max", "6"], {"involutions"}),
        (["aut", "--n", "5"], {"autgroup"}),
        (["k6", "--emit", "factors"], {"k6", "graphs"}),
    ],
    ids=["import", "classes", "lemma2", "aut", "k6"],
)
def test_a_command_loads_only_the_layers_it_reads(package_env, argv, added):
    run = "pass" if argv is None else f"assert cli.main({argv!r}) == 0"
    assert _layers_loaded(package_env, run) == LIGHT | added


@pytest.mark.parametrize(
    "names, added",
    [
        (("stars", "spectrum-survey", "permutation-algebra"), {"involutions"}),
        (("stars", "engine-oracle"), {"involutions", "graphs"}),
    ],
    ids=["obstruction", "engine-oracle"],
)
def test_the_obstruction_checks_stay_off_the_sym6_layers(package_env, names, added):
    """None of autgroup, icosahedron, k6, correspondence or graphs loads for
    the obstruction checks; engine-oracle adds only the graph engine."""
    run = f"assert all(r['passed'] for r in verify.run_checks({names!r}))"
    assert _layers_loaded(package_env, run) == LIGHT | added
