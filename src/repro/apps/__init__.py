"""Data-plane applications built on FANcY's interface."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".rerouting": ("FastRerouteApp",),
})
