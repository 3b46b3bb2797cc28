"""FCY009 violations: instrument factories on per-packet/per-event paths."""


class EgressHook:
    def __init__(self, telemetry):
        self.telemetry = telemetry

    def on_packet(self, packet):
        # label hashing + registry dict lookup on every packet
        self.telemetry.metrics.counter(
            "pkts_total", "packets seen", port="1").inc()
        return packet.size

    def tick(self, registry):
        registry.gauge("queue_depth", "pending events").set(3)


def dispatch(event, metrics):
    metrics.histogram("event_seconds", "per-event wall time").observe(0.1)


class ProtocolFsm:
    def __init__(self, telemetry):
        self.telemetry = telemetry

    def on_control(self, kind, payload):
        # four control messages per session, each re-resolving its counter
        self.telemetry.metrics.counter(
            "rejected_total", "rejected messages", reason="stale").inc()
