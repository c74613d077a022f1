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
"""

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
