"""Baselines: Loss Radar and NetSeer requirement models, the Blink
inference model, and the simple counter designs of §2.4 / §5.2."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".blink": ("BlinkModel",),
    ".lossradar": ("TABLE2_SWITCHES", "LossRadarModel", "SwitchProfile"),
    ".netseer": ("NetSeerBuffer", "NetSeerModel"),
    ".simple": (
        "CountingBloomReceiver", "CountingBloomSender", "SingleLinkCounterReceiver",
        "SingleLinkCounterSender", "StrategyLinkMonitor",
    ),
})
