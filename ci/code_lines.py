"""Print the code lines of each module of the package, then their total.

A code line holds a token other than a comment, a line break or indentation,
outside every docstring (the string that opens a module, class or function
body); a multi-line token counts each line it spans. Run from the repository
root: python ci/code_lines.py
"""

import ast
import pathlib
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    with path.open("rb") as source:
        lines = {n for token in tokenize.tokenize(source.readline) if token.type not in LAYOUT
                 for n in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path.name: code_lines(path) for path in sorted(pathlib.Path("src/thz_ris_planner").glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
