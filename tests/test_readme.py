"""The README's Python examples run as written and say what they compute."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    assert np.max(np.abs(ns["back"] - ns["sz"])) <= 1e-12
    assert np.array_equal(ns["marginal_x"](ns["table"]), [1, 0, 0, 0])
    assert np.max(np.abs(ns["flipped"] + ns["sx"])) <= 1e-12
    assert np.max(np.abs(ns["quantize_sampled"](ns["stepped"]) - ns["flipped"])) <= 1e-8
