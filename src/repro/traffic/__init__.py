"""Workload generation: prefixes, the §5.1 synthetic grid, Zipf skew, and
CAIDA-like trace synthesis."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".caida": (
        "CAIDA_TRACES", "SyntheticCaidaTrace", "TraceSlice", "TraceSpec",
        "zipf_mandelbrot_weights",
    ),
    ".prefixes": ("PrefixSpace", "prefix_str", "random_slash24s"),
    ".synthetic": ("ENTRY_SIZE_GRID", "ENTRY_SIZE_GRID_100", "LOSS_RATES", "EntrySize"),
    ".zipf": ("assign_rates", "flows_for_rate", "sample_zipf_ranks", "zipf_weights"),
})
