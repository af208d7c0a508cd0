import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The one Python block of README's "Library example" section."""
    section = README.read_text().split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    nonruin, bound = (float(line) for line in capsys.readouterr().out.splitlines())
    # exponential claims: 1 - phi exp(-(1 - phi) u) at u = 10, phi = 0.9
    assert abs(nonruin - (1.0 - 0.9 * math.exp(-1.0))) <= 1e-4
    assert 0.0 < bound < math.inf
