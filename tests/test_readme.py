"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_and_its_ppg_run_converges():
    # with max_iters=200 the quickstart printed converged=False: at
    # alpha = 1 its SVM needs 8380 sweeps to reach tol 1e-8
    block = re.search(r"## Library quickstart\n+```python\n(.*?)```",
                      README.read_text(), re.S)
    scope = {}
    exec(block.group(1), scope)
    assert scope["result"].converged
