"""The README's python examples run as written, and CI runs its shell examples."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out  # every example prints its result


def test_ci_runs_the_readme_shell_examples():
    # the frozenhill lines of the README's sh blocks, in order, are the lines
    # of the workflow's "README examples" step
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    readme = [ln for block in blocks for ln in block.splitlines() if ln.startswith("frozenhill ")]
    step = WORKFLOW.read_text().split("- name: README examples\n", 1)[1]
    step = re.split(r"^\s*- name:", step, maxsplit=1, flags=re.M)[0]
    ci = [ln.strip() for ln in step.splitlines() if ln.strip().startswith("frozenhill ")]
    assert readme and readme == ci
