"""The README's examples and the demos run as documented."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_examples():
    # a closing ``` fence right after an expected output would be read
    # as part of that output, so the fence lines are dropped first
    text = "\n".join(line for line in
                     (ROOT / "README.md").read_text().splitlines()
                     if not line.lstrip().startswith("```"))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md",
                                               "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # pyproject's filterwarnings does not reach a child interpreter, so
    # a numpy RuntimeWarning a demo leaks is made an error here
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
