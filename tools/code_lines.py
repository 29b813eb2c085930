"""Code lines per module of a package: lines that are not blank, not comments and not docstrings.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/paulisim`` of the checkout that holds this
script.  A docstring is the leading string statement of a module, class or
function, and every line it spans is left out; so is a line whose first
non-blank character is ``#``.  Prints one ``<lines> <module>`` row per
``*.py`` file under PACKAGE_DIR, sorted by path, then ``<lines> total``.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
                first.value.value, str
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, not comments and not in a docstring."""
    skip = _docstring_lines(ast.parse(source))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), start=1)
        if i not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def count_package(package: Path) -> dict[str, int]:
    """``code_lines`` of each ``*.py`` file under ``package``, keyed by its path relative to it."""
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "paulisim"
    if not package.is_dir():
        print(f"error: {package} is not a directory", file=sys.stderr)
        return 2
    counts = count_package(package)
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
