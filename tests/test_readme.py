"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["verdict"].predicts_nonconstant is True
    assert namespace["result"].classification == "nonconstant"
    # Each row of the scan's table totals as its point's own verdict.
    batch, table = namespace["batch"], namespace["table"]
    existence_verdict = namespace["existence_verdict"]
    assert len(table.total) == 10 and len(set(table.total.tolist())) > 1
    for k, total in enumerate(table.total.tolist()):
        assert total == existence_verdict(batch.model(k)).total
    assert "grad_l2" in capsys.readouterr().out
