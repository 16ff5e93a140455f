"""The ``python`` blocks of README.md run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(python_blocks(README.read_text())) >= 2


def test_readme_python_blocks_run(capsys):
    namespace: dict = {}
    for i, block in enumerate(python_blocks(README.read_text())):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["result"].converged
    assert namespace["stats"].converged


def test_solve_statistics_table_lists_every_solve_stats_key():
    from gsreg.mscra import _NOT_SUMMED
    from gsreg.wl21 import SolveStats

    text = README.read_text()
    table = text[text.index("### Solve statistics"):].split("\n\n")[2]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", table, flags=re.M)
    assert [key for key, _ in rows] == list(SolveStats().to_dict())
    # a sieved stage sums over its rounds exactly the fields marked with a sigma
    assert {key for key, meaning in rows if "(Σ)" not in meaning} == _NOT_SUMMED


def test_stage_traces_table_lists_every_stage_trace_key():
    import numpy as np

    from gsreg.mscra import StageTrace
    from gsreg.wl21 import SolveStats

    text = README.read_text()
    table = text[text.index("### Stage traces"):].split("\n\n")[2]
    rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    trace = StageTrace(1, np.zeros(2), np.zeros(1), 1.0, 1.0, 0.0, 0.0, 0, SolveStats(), 1e-3)
    assert rows == list(trace.to_dict())
