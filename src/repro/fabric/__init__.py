"""Network-wide FANcY: topology graphs, per-link deployment, rerouting.

The paper evaluates FANcY on one monitored link; an ISP deploys it on
*every* adjacent link of a fabric and closes the loop from detection to
selective rerouting (§6.1).  This package is that scenario generator:

* :mod:`repro.fabric.graph` — :class:`FabricGraph` (deterministic
  adjacency, BFS distances, ECMP next-hop sets) and
  :class:`FabricNetwork`, which materializes a graph onto the existing
  ``Simulator``/``Switch``/``Link`` primitives with flowlet-stable ECMP
  forwarding.
* :mod:`repro.fabric.builders` — ring, leaf-spine Clos, fat-tree, the
  Abilene ISP backbone, and seeded random ISP graphs.
* :mod:`repro.fabric.deployment` — one :class:`~repro.core.detector.
  FancyLinkMonitor` per (selected) directed link, telemetry forked off a
  shared registry.
* :mod:`repro.fabric.reroute` — loop-free-alternate precomputation and
  the controller that installs sticky selective reroutes when a link's
  monitor flags an entry.
* :mod:`repro.fabric.chaos` — fabric-link-addressed fault schedules and
  the invariant-checked ring soak.

See ``docs/FABRIC.md`` for the architecture and CLI usage.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".builders": ("abilene", "clos", "fat_tree", "random_isp", "ring"),
    ".chaos": ("FabricSoakConfig", "fabric_soak"),
    ".deployment": ("FabricDeployment",),
    ".graph": ("FabricGraph", "FabricNetwork"),
    ".reroute": ("FabricRerouteController", "LfaTable", "SelectiveRerouteApp"),
})
