"""Experiment harness: one module per table/figure of the paper.

| module        | paper artifact                                   |
|---------------|--------------------------------------------------|
| ``table1``    | Table 1 — gray-failure classification + coverage |
| ``table2``    | Table 2 — Loss Radar requirements                |
| ``fig2``      | Figure 2 — NetSeer required memory               |
| ``fig7``      | Figure 7 — dedicated-counter heatmaps            |
| ``fig8``      | Figure 8 — min entry size vs zooming speed       |
| ``fig9``      | Figure 9a/9b — hash-tree heatmaps                |
| ``uniform``   | §5.1.3 — uniform failures                        |
| ``table3``    | Table 3 — CAIDA-trace accuracy/speed             |
| ``baselines52`` | §5.2 — comparison to simple designs            |
| ``overhead``  | §5.3 — overhead analysis                         |
| ``table4``    | Table 4 — Tofino resource usage                  |
| ``fig10``     | Figure 10 — fast-rerouting case study            |
| ``fig11``     | Figure 11 — tree parameter sensitivity           |
| ``table5``    | Table 5 — CAIDA trace characteristics            |
| ``fabric``    | network-wide closed loop (docs/FABRIC.md)        |

Each module exposes ``run(...) -> dict`` and ``render(result) -> str``;
``main()`` prints the rendered artifact.  ``quick=True`` (the default)
runs a reduced but shape-preserving configuration; the paper-faithful
sweeps are available through each module's config dataclass and the CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": (
        "baselines52", "fabric", "fig10", "fig11", "fig2", "fig7", "fig8", "fig9",
        "heatmaps", "metrics", "overhead", "report", "runner", "table1", "table2",
        "table3", "table4", "table5", "telemetry_report", "uniform",
    ),
})
