"""README's library quick start runs as written and keeps its promises."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    """The first python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_steps_reproduce_the_pipeline():
    code = quick_start_block()
    assert "# equals result.b_hat" in code and "# equals result.df" in code
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    result = scope["result"]
    assert np.array_equal(scope["b_me"].coeffs, result.b_hat.coeffs)
    assert scope["df"] == result.df
    assert scope["me"].chosen_n == scope["me"].b_hat.order
