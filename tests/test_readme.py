"""The README's library quick tour runs as written, and every value its
comments state is the one the library returns."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def line_comments(source: str) -> dict[int, str]:
    """The text of the comment on each line of source, by line number."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def test_quick_tour():
    source = quick_tour()
    comments = line_comments(source)
    namespace: dict = {}
    claims = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            # the comment after an expression states its value
            stated = ast.literal_eval(comments[stmt.end_lineno])
            assert eval(code, namespace) == stated, code
            claims += 1
        else:
            exec(code, namespace)
    assert claims == 4
