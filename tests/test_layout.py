"""Source layout: the column limit the package and its tests keep."""

from pathlib import Path

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
