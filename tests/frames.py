"""Python frame counting for the frame-budget and neutrality tests.

The budgets (``tests/fabric/test_hop_budget.py``,
``tests/simulator/test_segment_budget.py``,
``tests/core/test_session_budget.py``) and the observer's neutrality
(``tests/telemetry/test_neutrality.py``) are deterministic: no wall
clock, only the Python ``call`` events ``sys.setprofile`` sees.
"""

from __future__ import annotations

import sys
from collections import Counter
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


def calls_by_function(run: Callable[..., Any], *args: Any, within: Any,
                      exclude: tuple[str, ...] = (), **kwargs: Any) -> Counter:
    """Python calls per function (``module.qualname``) beneath the frames
    of the code object ``within`` while ``run(*args, **kwargs)`` executes.

    The ``within`` frames themselves are not counted, and neither is a
    frame of a module under an ``exclude`` prefix nor anything it calls.
    """
    counts: Counter = Counter()
    #: Per live frame: (a ``within`` frame, an excluded frame).
    stack: list[tuple[bool, bool]] = []
    inside = excluded = 0

    def count(frame: Any, event: str, _arg: Any) -> None:
        nonlocal inside, excluded
        if event == "call":
            code = frame.f_code
            module = frame.f_globals.get("__name__", "")
            marker = code is within
            skip = module.startswith(exclude) if exclude else False
            if inside and not excluded and not marker and not skip:
                counts[f"{module}.{code.co_qualname}"] += 1
            stack.append((marker, skip))
            inside += marker
            excluded += skip
        elif event == "return" and stack:
            marker, skip = stack.pop()
            inside -= marker
            excluded -= skip

    sys.setprofile(count)
    try:
        run(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts
