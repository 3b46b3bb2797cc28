"""FANcY core: counting protocol, dedicated counters, hash-based trees,
zooming, memory budgeting, and the link-monitor integration layer."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis": (
        "collision_probability", "dedicated_memory_bits", "expected_collisions",
        "max_dedicated_entries", "tree_memory_bits", "tree_nodes",
        "tree_total_memory_bits",
    ),
    ".bloom": ("BloomFilter", "CountingBloomFilter", "stable_hash"),
    ".classify": ("by_field", "by_packet_size", "by_prefix", "compose"),
    ".congestion": ("GuardedSenderStrategy", "QueueGuard"),
    ".counters": ("DedicatedReceiverCounters", "DedicatedSenderCounters"),
    ".detector": ("FancyConfig", "FancyLinkMonitor"),
    ".entries": ("MonitoringInput", "Priority"),
    ".hashtree": ("HashTree", "HashTreeParams", "TreeCounters"),
    ".latency": ("LatencyModel",),
    ".memory": ("MemoryBudgetError", "MemoryPlan", "plan_memory"),
    ".output": ("FailureKind", "FailureLog", "FailureReport", "HashPathFlags"),
    ".probability": ("DetectionProbabilityModel",),
    ".protocol": ("FancyReceiver", "FancySender", "ReceiverState", "SenderState"),
    ".statesync": (
        "ValueSyncReceiver", "ValueSyncSender", "byte_count", "packet_count",
        "payload_signature",
    ),
    ".strawman": ("StrawmanLinkMonitor", "StrawmanReceiver", "StrawmanSender"),
    ".zooming": ("TreeReceiverStrategy", "TreeSenderStrategy"),
})
