"""List each definition in src/ that no other line of src/ names.

A definition is a top-level function or class of a module under src/, or
a method of such a class other than a dunder, which Python calls by
itself.  It counts as named when its name occurs as a whole word on a
line of src/ outside the definition's own lines.  For each one that is
not, the script prints the top-level directories whose Python files do
name it, which says who still needs it.  The census reads names only, so
an attribute of the same name elsewhere hides a definition; it reports
and gates nothing.

Run from the root of the repository: python scripts/src_census.py
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def definitions(path):
    """(qualified name, name, first line, last line) for each definition."""
    tree = ast.parse(path.read_text(), str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def main():
    sources = {path: path.read_text().splitlines()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    others = {}
    for top in sorted(ROOT.iterdir()):
        if top.is_dir() and top.name != "src" and not top.name.startswith("."):
            others[top.name] = "\n".join(
                path.read_text() for path in sorted(top.rglob("*.py")))
    unnamed = 0
    for path, lines in sources.items():
        for qualified, name, first, last in definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if any(word.search(line)
                   for other, other_lines in sources.items()
                   for number, line in enumerate(other_lines, 1)
                   if other != path or not first <= number <= last):
                continue
            unnamed += 1
            users = [top for top, text in others.items() if word.search(text)]
            print(f"{path.relative_to(ROOT)}: {qualified} "
                  f"(named in: {', '.join(users) or 'nothing'})")
    print(f"{unnamed} definitions named by no other line of src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
