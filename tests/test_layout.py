"""Source layout: the column limit the package and its tests keep, and the
package's caches, each kept because a benchmark workload asks for its
result again."""

import importlib
import pkgutil
from pathlib import Path

import outersix

MAX_COLUMNS = 88
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


CACHES = {
    "autgroup.sym", "autgroup.enumerate_automorphisms", "autgroup._conjugators",
    "autgroup.inner_and_outer", "involutions._product_orders",
    "icosahedron.dual_pair_table", "k6.tutte_graph",
    "correspondence.cage_automorphisms", "correspondence._vertex_elements",
    "correspondence._tables_by_vertex_images",
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
