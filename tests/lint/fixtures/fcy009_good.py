"""Clean counterpart: instruments resolved once, hot paths only record."""


class EgressHook:
    def __init__(self, telemetry):
        self.telemetry = telemetry
        self._m_pkts = telemetry.metrics.counter(
            "pkts_total", "packets seen", port="1")
        self._m_depth = telemetry.metrics.gauge(
            "queue_depth", "pending events")

    def on_packet(self, packet):
        self._m_pkts.inc()
        return packet.size

    def tick(self):
        self._m_depth.set(3)


def dispatch(event, hist):
    hist.observe(0.1)


class ProtocolFsm:
    """Lazily memoised: bound on first use, so no zero-valued series."""

    def __init__(self, telemetry):
        self.telemetry = telemetry
        self._rejected = {}

    def _count_rejected(self, reason):
        counter = self._rejected.get(reason)
        if counter is None:
            counter = self._rejected[reason] = self.telemetry.metrics.counter(
                "rejected_total", "rejected messages", reason=reason)
        counter.inc()

    def on_control(self, kind, payload):
        self._count_rejected("stale")
