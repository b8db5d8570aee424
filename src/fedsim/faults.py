"""Fault timelines: scheduled impairment changes, blackouts, health flips.

A timeline is a list of events pinned to virtual times. ``compile_timeline``
checks it against the topology and, in the same walk, turns it into an
ordered list of primitive actions the engine replays as ``timeline_apply``
events: a ``set_link`` becomes one rule update, and a blackout becomes a
start action at ``at_s`` and an end action at ``end_s``. ``topology.validate``
is its one caller; the compiled actions travel on the ``ValidatedTopology``.

Each link counts how many of its two clusters are blacked out, and is dark
(drops every message) while that count is above 0. A blackout's start adds 1
to the count of every directed link touching the cluster and its end
subtracts 1, so blackouts of different clusters may overlap freely. A
``set_link`` replaces the link's rule and never touches the count: inside a
blackout it takes effect when the last blackout on the link ends. Blackouts
on the same cluster must not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fields
from .netem import CORRELATION_WARNING, ImpairmentRule, JitterSpec, LossSpec

ACTION_SET_LINK = "set_link"
ACTION_BLACKOUT = "blackout"
ACTION_SET_HEALTH = "set_health"


@dataclass(frozen=True)
class _Timed:
    """The field every timeline event carries."""

    at_s: float = field(metadata={"bounds": ">= 0"})


@fields.declare
@dataclass(frozen=True)
class SetLinkEvent(_Timed):
    """Replace the rule on one directed link at ``at_s``."""

    src: str
    dst: str
    delay_ms: float = field(default=0.0, metadata={"bounds": ">= 0"})
    jitter: JitterSpec = JitterSpec()
    loss: LossSpec = LossSpec()


@fields.declare
@dataclass(frozen=True)
class BlackoutEvent(_Timed):
    """Total connectivity loss for one cluster over [at_s, end_s)."""

    cluster: str
    end_s: float


@fields.declare
@dataclass(frozen=True)
class SetHealthEvent(_Timed):
    """Flip health of one replica, or of every replica of the service in the
    cluster when ``replica`` is None."""

    service: str
    cluster: str
    healthy: bool
    replica: int | None = None


TimelineEvent = SetLinkEvent | BlackoutEvent | SetHealthEvent


# Compiled primitive actions, cluster names resolved to indices.

@dataclass(frozen=True)
class ApplyRule:
    src: int
    dst: int
    rule: ImpairmentRule


@dataclass(frozen=True)
class BlackoutStart:
    cluster: int


@dataclass(frozen=True)
class BlackoutEnd:
    cluster: int


@dataclass(frozen=True)
class ApplyHealth:
    service: str
    cluster: int
    replica: int | None
    healthy: bool


def compile_timeline(events, index_of: dict[str, int], placements: dict[str, dict[int, int]]):
    """Check a timeline against the topology and expand it, in one walk.
    ``placements`` maps service name -> {cluster index -> replica count}.
    Returns ``(actions, errors, warnings)``: the (time, action) pairs in
    time order, declaration order breaking ties, which hold only if there
    is no error; every violation; and a warning per ``set_link`` whose loss
    correlation is above 0."""
    errors: list[str] = []
    warnings: list[str] = []
    actions: list[tuple[float, object]] = []
    blackout_spans: dict[str, list[tuple[float, float, int]]] = {}
    for k, event in enumerate(events):
        path = f"timeline[{k}]"
        if isinstance(event, _Timed):
            fields.check(event, path, errors)
        if isinstance(event, SetLinkEvent):
            for field_name, name in (("src", event.src), ("dst", event.dst)):
                if name not in index_of:
                    errors.append(f"{path}.{field_name}: unknown cluster '{name}'")
            if event.src == event.dst and event.src in index_of:
                errors.append(f"{path}: src and dst must differ")
            if event.loss.correlation > 0:
                warnings.append(f"{path}.loss: {CORRELATION_WARNING}")
            rule = ImpairmentRule(event.delay_ms, event.jitter, event.loss)
            actions.append((event.at_s, ApplyRule(index_of.get(event.src), index_of.get(event.dst), rule)))
        elif isinstance(event, BlackoutEvent):
            cluster = index_of.get(event.cluster)
            if cluster is None:
                errors.append(f"{path}.cluster: unknown cluster '{event.cluster}'")
            if event.end_s <= event.at_s:
                errors.append(f"{path}: end_s must exceed at_s")
            else:
                blackout_spans.setdefault(event.cluster, []).append((event.at_s, event.end_s, k))
            actions.append((event.at_s, BlackoutStart(cluster)))
            actions.append((event.end_s, BlackoutEnd(cluster)))
        elif isinstance(event, SetHealthEvent):
            cluster = index_of.get(event.cluster)
            if cluster is None:
                errors.append(f"{path}.cluster: unknown cluster '{event.cluster}'")
            elif event.service not in placements:
                errors.append(f"{path}.service: unknown service '{event.service}'")
            else:
                count = placements[event.service].get(cluster, 0)
                if count == 0:
                    errors.append(f"{path}: service '{event.service}' has no replicas in cluster '{event.cluster}'")
                elif event.replica is not None and not 0 <= event.replica < count:
                    errors.append(f"{path}.replica: out of range for '{event.service}'")
            actions.append((event.at_s, ApplyHealth(event.service, cluster, event.replica, event.healthy)))
        else:
            errors.append(f"{path}: unknown event type {type(event).__name__}")
    for cluster, spans in blackout_spans.items():
        spans.sort()
        for (s1, e1, _i1), (s2, _e2, i2) in zip(spans, spans[1:]):
            if s2 < e1:
                errors.append(f"timeline[{i2}]: blackout on '{cluster}' overlaps an earlier blackout")
    actions.sort(key=lambda entry: entry[0])  # a stable sort: declaration order breaks ties
    return actions, errors, warnings


def apply(engine, action) -> None:
    """Apply one compiled action to a running engine. Applying the same
    ``ApplyRule`` or ``ApplyHealth`` twice is a no-op the second time."""
    if isinstance(action, ApplyRule):
        engine.table.links[action.src][action.dst].rule = action.rule
    elif isinstance(action, (BlackoutStart, BlackoutEnd)):
        step = 1 if isinstance(action, BlackoutStart) else -1
        links = engine.table.links
        cluster = action.cluster
        for other in range(len(links)):
            if other != cluster:
                links[cluster][other].blackouts += step
                links[other][cluster].blackouts += step
    elif isinstance(action, ApplyHealth):
        for replica in engine.replicas:
            if replica.service == action.service and replica.cluster == action.cluster:
                if action.replica is None or replica.replica == action.replica:
                    replica.healthy = action.healthy
    else:
        raise TypeError(f"unknown timeline action {type(action).__name__}")
