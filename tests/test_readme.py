"""The README's library example runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capfd):
    # the one fenced python block, executed verbatim; it integrates the
    # theta = 3e-4 run to T = 1000 (1e5 steps, about 1.7 s on 2 vCPUs)
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    out, err = capfd.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1
