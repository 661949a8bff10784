"""Lines of code in ``src/``: per file and in total, optionally against a base commit.

Usage, from anywhere inside the repository::

    python3 tools/loc.py                 # the checkout's src/
    python3 tools/loc.py --base HEAD~1   # also that commit's src/, and the delta

A line of code holds at least one token that is not a comment (found
with ``tokenize``) and is not part of a docstring (found with ``ast``):
the first statement of a module, class or function when it is a string.
Blank lines hold no token.  A token that spans lines, such as a
multi-line string, counts every line it spans.  The base commit's files
are exported with ``git archive`` into a temporary directory, as
``tools/bench_pairs.py`` exports them, so the repository is left as it
was.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tempfile
import tokenize

from bench_pairs import export_tree, git

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: bytes) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def count_tree(root: str) -> dict[str, int]:
    """Lines of code of every ``.py`` file under ``root/src``, keyed by path relative to ``root``."""
    counts = {}
    for folder, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as f:
                    counts[os.path.relpath(path, root)] = code_lines(f.read())
    return counts


def count_commit(root: str, rev: str) -> dict[str, int]:
    """:func:`count_tree` of the files of commit ``rev``."""
    with tempfile.TemporaryDirectory() as tree:
        export_tree(root, rev, tree)
        return count_tree(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="also count this commit and print the change against it")
    args = parser.parse_args(argv)
    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    counts = count_tree(root)
    if args.base is None:
        for path, lines in counts.items():
            print(f"{lines:6d}  {path}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    base = count_commit(root, args.base)
    print(f"{'base':>6}  {'now':>6}  {'delta':>6}")
    for path in sorted(base.keys() | counts.keys()):
        old, new = base.get(path, 0), counts.get(path, 0)
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {path}")
    old, new = sum(base.values()), sum(counts.values())
    print(f"{old:6d}  {new:6d}  {new - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
