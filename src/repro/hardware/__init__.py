"""Tofino hardware model: resource envelope (Appendix B), memory
accounting (B.2), and the Table 4 resource-share model."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".recirculation": ("RecirculationModel",),
    ".resources": (
        "COMPONENT_COSTS", "RESOURCE_CLASSES", "SWITCH_P4", "TABLE4_CONFIGS",
        "ResourceShares", "dedicated_counter_memory_bits", "fsm_memory_bits",
        "hashtree_memory_bits", "rerouting_memory_bits", "resource_usage",
        "total_fancy_memory_bits",
    ),
    ".tofino": ("TOFINO_32PORT", "TofinoProfile", "recirculations_for_tree_read"),
})
