"""The command line's argparse parser, for help and usage errors.

``cli._parse`` reads a plain command line in one pass over
``cli._GRAMMAR``; every other command line goes to the parser built
here from the same table, and so does every usage error that a
subcommand finds.  This module, and argparse with it, load only then:
a plain request compiles neither.
"""

import argparse


def build_parser(grammar: dict) -> argparse.ArgumentParser:
    """The parser of ``grammar`` (see ``cli._GRAMMAR``): a subparser per
    path, its arguments added as the table gives them, and its handler
    as the ``func`` default; a path without a handler groups the paths
    below it under ``query``."""
    top = argparse.ArgumentParser(
        prog="punctmetric",
        description="Hyperbolic-metric numerics for punctured plane domains.")
    groups = {(): top.add_subparsers(dest="command", required=True)}
    for path, (doc, func, arguments) in grammar.items():
        p = groups[path[:-1]].add_parser(path[-1], help=doc)
        for name, kw in arguments.items():
            p.add_argument(name, **kw)
        if func is None:
            groups[path] = p.add_subparsers(dest="query", required=True)
        else:
            p.set_defaults(func=func)
    return top
