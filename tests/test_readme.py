import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_example() -> str:
    """The python block of the README's "## Library" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs():
    # a public name the README uses and the package no longer has fails here
    # instead of going stale in the docs
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", _library_example()],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout
