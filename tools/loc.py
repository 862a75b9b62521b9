"""
Count the code lines of the package: the lines of each module under
src/toepsys that hold code, leaving out blank lines, comment-only lines
and docstrings (the string that opens a module, class or function).

    python tools/loc.py [directory]

prints one line per module and the total, code lines and all lines.
"""

import ast
import io
import pathlib
import sys
import tokenize


def docstring_lines(tree):
    """The line numbers taken by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` that carry a token other than a
    comment, outside its docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent / "src" / "toepsys")
    code = total = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        c, t = code_lines(source), len(source.splitlines())
        print("%-16s %5d %5d" % (path.stem, c, t))
        code, total = code + c, total + t
    print("%-16s %5d %5d" % ("total", code, total))


if __name__ == "__main__":
    main(sys.argv)
