"""Process-sharded fabric execution: plan, seed, and merge link shards.

A fabric's link monitors share no simulator state with each other beyond
the packets that happen to cross them — which is why a fabric run can be
sharded across processes at all.  The unit of determinism here is the
**link**, not the shard: every per-link probe simulation is a pure
function of ``(experiment config, case, link_id)``, and a shard is
merely a batch of links one worker happens to execute.  Grouping is an
execution knob — ``--shards 1``, ``2`` and ``4`` must (and do) produce
byte-identical merged output.

Every sharded run — the fabric experiment's detection probes and the
``serve`` soak — goes through :func:`run_link_probes`, and these pieces
enforce the contract:

* :func:`plan_shards` partitions the link list round-robin and derives a
  per-link seed with :func:`~repro.runtime.stable_seed` keyed **only**
  on ``(base seed, link_id)`` — never on the shard index or count, so
  regrouping cannot reshuffle anyone's RNG stream.  (fancylint FCY010
  flags shard-spec seeding that bypasses ``stable_seed``.)
* each per-link probe runs its own :class:`~repro.telemetry.session.
  Telemetry` whose forks are scoped by link id, so minted trace ids are
  grouping-independent, and hands back :func:`probe_payload` — packed
  text, not simulator state: the batch worker reclaims each probe at its
  boundary.
* :func:`merge_link_results` folds the per-link payloads back together
  in **sorted link order**: detection records re-sorted under the
  deployment's contract, metric registries merged with
  :func:`~repro.telemetry.registry.merge_snapshots` (commutative over
  sorted input), the links' packed trace chunks handed on undecoded,
  in the same order — so the Prometheus text and the trace JSONL that
  :func:`trace_text_chunks` decodes from them are byte-identical for
  any worker or shard count.
"""

from __future__ import annotations

import binascii
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Optional

from ..obs.trace import TraceCollector, spans_to_jsonl, unseal
from ..runtime.context import RuntimeContext
from ..runtime.executor import reclaim_at_boundary, run_sweep
from ..runtime.jobs import Job, fingerprint, stable_seed
from ..telemetry.export import to_prometheus
from ..telemetry.registry import merge_snapshots

__all__ = ["ShardSpec", "plan_shards", "probe_payload", "pack_trace",
           "run_link_probes", "merge_link_results", "trace_text_chunks",
           "trace_text"]


@dataclass(frozen=True)
class ShardSpec:
    """One worker's batch of per-link probe simulations.

    ``link_seeds[i]`` is the derived seed for ``links[i]`` — a pure
    function of the base seed and the link id, never of ``index`` or the
    shard count (the regrouping-invariance contract).
    """

    index: int
    links: tuple[str, ...]
    link_seeds: tuple[int, ...]


def plan_shards(link_ids: Sequence[str], n_shards: int,
                seed: int = 0) -> list[ShardSpec]:
    """Partition ``link_ids`` into ``n_shards`` round-robin batches.

    Empty shards are dropped (a 4-shard plan over 3 links yields 3
    specs), so callers can pass ``--shards`` values larger than the
    fabric without special-casing.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ordered = list(link_ids)
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate link ids in shard plan")
    specs: list[ShardSpec] = []
    for index in range(n_shards):
        links = tuple(ordered[index::n_shards])
        if not links:
            continue
        seeds = tuple(
            stable_seed(seed, "fabric-shard", link_id, bits=31)
            for link_id in links
        )
        specs.append(ShardSpec(index=index, links=links, link_seeds=seeds))
    return specs


def probe_payload(deployment: Any, fluid: Any) -> dict[str, Any]:
    """What a one-link probe hands :func:`merge_link_results`.

    ``deployment`` monitors exactly one link under its own telemetry
    session; ``fluid`` is the probe's fluid engine, or None.  The trace
    crosses the process boundary packed (:func:`pack_trace`) — no probe
    ever holds its whole trace as text.
    """
    ((link_id, monitor),) = deployment.monitors.items()
    sim = deployment.net.sim
    traces = monitor.telemetry.traces
    traces.finalize(sim.now)
    return {
        "link": link_id,
        "detections": deployment.detection_records(),
        "metrics": deployment.telemetry.metrics.snapshot(),
        "trace_packed": pack_trace(traces),
        "sessions_completed": deployment.sessions_completed()[link_id],
        "events_processed": sim.events_processed,
        "fluid_absorbed": fluid.absorbed if fluid is not None else 0,
    }


def pack_trace(traces: TraceCollector) -> list[str]:
    """The collector's :meth:`~repro.obs.trace.TraceCollector.zlib_chunks`,
    each as its base64 text: a payload must stay JSON-safe, because the
    result cache stores it as JSON."""
    return [binascii.b2a_base64(chunk, newline=False).decode("ascii")
            for chunk in traces.zlib_chunks()]


def _probe_batch(payload: tuple) -> dict[str, Any]:
    """Top-level (picklable) shard worker: one probe per assigned link.

    Each probe is reclaimed at its own boundary, so what a finished
    probe leaves behind is its payload, never its simulator.
    """
    probe, args, links, link_seeds = payload
    out: dict[str, Any] = {}
    for link_id, link_seed in zip(links, link_seeds):
        with reclaim_at_boundary():
            out[link_id] = probe(*args, link_id, link_seed)
    return out


def run_link_probes(
    probe: Callable[..., dict[str, Any]],
    args: tuple,
    link_ids: Sequence[str],
    shards: int,
    seed: int,
    label: str,
    sim_s: float,
    runtime: Optional[RuntimeContext] = None,
) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
    """Run ``probe(*args, link_id, link_seed)`` once per link, sharded.

    Plans ``shards`` batches, runs them under :func:`~repro.runtime.
    run_sweep` (``label`` names the sweep and keys its result cache with
    ``args``; ``sim_s`` is one probe's simulated horizon), insists every
    batch completed and folds the payloads.  Returns the merged result,
    with ``shards`` set to the number of non-empty batches, and the
    per-link payloads.
    """
    specs = plan_shards(link_ids, shards, seed=seed)
    jobs = [
        Job(
            key=f"shard-{spec.index}",
            payload=(probe, args, spec.links, spec.link_seeds),
            fingerprint=fingerprint(label, args, spec.links),
            sim_s=sim_s * len(spec.links),
        )
        for spec in specs
    ]
    sweep = run_sweep(jobs, _probe_batch, runtime=runtime, label=label)
    # A silently missing shard would merge into a plausible-but-wrong
    # result (fewer links, fewer detections) — insist on completeness.
    sweep.require_ok(label)
    per_link: dict[str, dict[str, Any]] = {}
    for job in jobs:
        per_link.update(sweep.results[job.key])
    merged = merge_link_results(per_link)
    merged["shards"] = len(specs)
    return merged, per_link


def _trace_chunks(payload: Mapping[str, Any]) -> Iterator[str]:
    """A payload's trace as text pieces, decoded one at a time.

    Probes ship ``trace_packed`` (:func:`pack_trace`); in-memory callers
    may give ``spans`` (dicts).
    """
    packed = payload.get("trace_packed")
    if packed is None:
        yield spans_to_jsonl(payload.get("spans", ()))
        return
    for chunk in packed:
        yield unseal(binascii.a2b_base64(chunk))


def trace_text_chunks(parts: Sequence[Mapping[str, Any]]) -> Iterator[str]:
    """The merged trace JSONL of :func:`merge_link_results`'s
    ``trace_parts``, as text pieces decoded one at a time."""
    for part in parts:
        yield from _trace_chunks(part)


def trace_text(parts: Sequence[Mapping[str, Any]]) -> str:
    """:func:`trace_text_chunks` as one text.  Each piece is appended in
    turn, never all decoded at once for a join."""
    text = ""
    for part in parts:
        # Not through trace_text_chunks: with that generator between
        # here and the decoder, the peak RSS of fabric_sharded measured
        # ≈ 1.2 MiB higher (29.0 against 27.8 MiB), a transient the
        # allocator shows and tracemalloc does not.
        for piece in _trace_chunks(part):
            # One reference, so CPython grows the text in place; the
            # piece goes before the next one is decoded.
            text += piece
            del piece
    return text


def _trace_part(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The trace-carrying entry of one payload, as it arrived."""
    for key in ("trace_packed", "spans"):
        if payload.get(key) is not None:
            return {key: payload[key]}
    return {}


def merge_link_results(per_link: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Deterministically merge per-link probe payloads.

    Each payload carries ``detections`` (deployment-contract tuples),
    ``metrics`` (a registry snapshot dict), ``trace_packed`` (the link
    collector's :func:`pack_trace`), ``sessions_completed``,
    ``events_processed`` and ``fluid_absorbed``.  Links are folded in
    sorted id order so the output is a pure function of the payload
    *set* — the shards 1/2/4 byte-equality contract.  The trace is not
    decoded here: ``trace_parts`` holds each link's packed chunks (or its
    span dicts) in that order, and every trace chunk ends in a
    newline, so :func:`trace_text` over them is one ``spans_to_jsonl``
    over all links' spans.
    """
    ordered = sorted(per_link)
    detections = sorted(
        tuple(rec)  # the JSON result cache round-trips records as lists
        for link_id in ordered
        for rec in per_link[link_id].get("detections", ())
    )
    snapshots = [per_link[link_id]["metrics"] for link_id in ordered
                 if per_link[link_id].get("metrics") is not None]
    metrics = merge_snapshots(*snapshots) if snapshots else {"metrics": []}
    return {
        "links": ordered,
        "detections": detections,
        "metrics": metrics,
        "prometheus": to_prometheus(metrics),
        "trace_parts": [_trace_part(per_link[link_id]) for link_id in ordered],
        "sessions_completed": {
            link_id: per_link[link_id].get("sessions_completed", 0)
            for link_id in ordered
        },
        "events_processed": sum(
            per_link[link_id].get("events_processed", 0)
            for link_id in ordered),
        "fluid_absorbed": sum(
            per_link[link_id].get("fluid_absorbed", 0)
            for link_id in ordered),
    }
