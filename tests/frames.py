"""Python frame counting for the frame-budget tests.

The budgets (``tests/fabric/test_hop_budget.py``,
``tests/simulator/test_segment_budget.py``,
``tests/core/test_session_budget.py``) are deterministic: no wall clock,
only the Python ``call`` events ``sys.setprofile`` sees.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def count_calls(run: Callable[..., Any], *args: Any, **kwargs: Any) -> int:
    """Python frames entered while ``run(*args, **kwargs)`` executes.

    The call to ``run`` itself counts, as it would when profiling it inline.
    """
    frames = 0

    def count(_frame: Any, event: str, _arg: Any) -> None:
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(count)
    try:
        run(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return frames
