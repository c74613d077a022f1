"""Every module of the package stays below the parser's 8192-token step.

CPython 3.11's PEG parser keeps a module's tokens in an array that it
doubles as it fills.  At 8192 tokens the array doubles to 16384 slots,
and compiling the module from source takes ~0.45 MB more.  A process
that compiles from source, as one does with PYTHONDONTWRITEBYTECODE=1,
pays that at import.  It then shows in the peak_rss_mb of every
perfbench workload; see the FOUND line on peak_rss_mb and the 8192
parser tokens in CHANGES.md.

A module's parser tokens are counted as its tokenize tokens less
COMMENT, NL and ENCODING, which the parser never sees.

``python tests/test_module_size.py`` prints each module's parser tokens
and code lines (lines that hold a parser token, docstrings left out),
the next power of two its tokens reach and the headroom to it, and the
totals over the package.  Each power of two is a step of the array:
the 4096 step costs ~0.3 MB of compile peak (ROADMAP's loose ends).
Both CI jobs run it, so each change's size shows in their logs.
"""

import ast
import io
import pathlib
import tokenize

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "punctmetric"
STEP = 8192


def parser_tokens(source: bytes) -> int:
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL,
                                tokenize.ENCODING)
               for tok in tokenize.tokenize(io.BytesIO(source).readline))


def code_lines(source: bytes) -> int:
    """The lines that hold a parser token other than NEWLINE, INDENT,
    DEDENT or ENDMARKER, less the lines of docstrings."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING,
                            tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_stays_below_the_parser_token_step(path):
    count = parser_tokens(path.read_bytes())
    assert count < STEP, (
        f"{path.name} has {count} parser tokens, at or past the {STEP} "
        f"step where the parser's token array doubles: peak_rss_mb rises "
        f"~0.45 MB on every perfbench workload (CHANGES.md, the FOUND on "
        f"peak_rss_mb and 8192 parser tokens)")


def test_comments_and_blank_lines_are_not_parser_tokens():
    # x = ( 1 , 2 ) NEWLINE / if x : NEWLINE / INDENT pass NEWLINE DEDENT
    # ENDMARKER; the comment, the blank line and the line break inside
    # the parentheses (NL) are not counted
    source = b"x = (1,\n     2)  # a tuple\n\nif x:\n    pass\n"
    assert parser_tokens(source) == 17


if __name__ == "__main__":
    total_tokens = total_lines = 0
    print(f"{'module':<20} {'tokens':>7} {'lines':>6} {'step':>6} "
          f"{'headroom':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_bytes()
        tokens, lines = parser_tokens(source), code_lines(source)
        total_tokens += tokens
        total_lines += lines
        step = 1 << tokens.bit_length()  # the next power of two
        print(f"{path.name:<20} {tokens:>7} {lines:>6} {step:>6} "
              f"{step - tokens:>8}")
    print(f"{'src/ total':<20} {total_tokens:>7} {total_lines:>6}")
