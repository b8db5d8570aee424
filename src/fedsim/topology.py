"""Scenario documents and federation topology.

A scenario is a YAML document describing the whole federation: clusters and
their node shapes, the inter-cluster link matrices, the two-stage service
pipeline, the open-loop workload, and a fault timeline. This module owns the
full document lifecycle:

  * ``parse_scenario`` / ``load_scenario``: strict YAML -> ``FederationSpec``
    (unknown fields, missing required fields, non-finite numbers and shape
    mismatches are rejected with field paths; syntax errors carry the
    document position).
  * ``render_scenario``: ``FederationSpec`` -> canonical YAML. Rendering a
    parsed document and parsing it again yields an equal spec.
  * ``validate``: semantic checks over the spec, collecting every violation
    before failing, and resolution into a ``ValidatedTopology`` with cluster
    indices assigned in declaration order.
  * ``build_runtime``: construct the discrete-event engine for a validated
    topology. The returned engine has an empty event queue; priming happens
    on the first ``run``.

Each field is declared once, on its dataclass (see ``fields``); that table
drives parsing, rendering and the per-field checks. The code here handles
only what the table cannot express: the dense delay matrix, the sparse
``src``/``dst`` jitter and loss entries, replica maps, stage-dependent demand
defaults, the ``action``-tagged timeline, and the cross-field checks.

Scenario-level units are operator-friendly (milliseconds, ms per kB with
1 kB = 1000 bytes). Validation converts service demands to seconds and
seconds per byte once, into each service's ``StageProfile``. Delays stay in
milliseconds in the link model (``netem``): the engine converts the gateway
delays to seconds when it is built and each sampled link delay when it
schedules the message, and ``probes`` keeps RTTs in milliseconds, as they
are exported, converting only the receipt time.
"""

from __future__ import annotations

import gc
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from . import faults, fields, workload
from .engine import EngineState
from .fields import ScenarioError, as_list, as_map, as_str, each, fail, require
from .mesh import POLICIES, ROUND_ROBIN
from .netem import JITTER_NONE, JitterSpec, LossSpec
from .workload import (
    PAYLOAD_CONSTANT,
    PAYLOAD_EMPIRICAL,
    PAYLOAD_LOGNORMAL,
    STAGE_BACKEND,
    STAGE_FRONTEND,
    STAGES,
    StageProfile,
    WorkloadSpec,
)

ROLE_EDGE = "edge"
ROLE_DATACENTER = "datacenter"
ROLES = (ROLE_EDGE, ROLE_DATACENTER)

# A run scrapes every replica at each k * scrape_interval_s below duration_s
# and keeps every scrape; a day at one scrape per second is 86,400.
MAX_SCRAPES = 100_000
# A lognormal payload draw is exp(normal(mu, sigma)); ten sigmas above mu
# must stay below the largest float, or a draw can overflow.
MAX_LOG_PAYLOAD = math.log(sys.float_info.max)
# A payload size is turned into a float (the backend's reduced bytes), which
# fails for a whole number above the largest float.
MAX_PAYLOAD_BYTES = sys.float_info.max

# Stage demand defaults: frontend detect-and-crop, backend recognition.
STAGE_DEMAND = {
    STAGE_FRONTEND: {"base_ms": 20.0, "per_kb_ms": 0.01, "reduction": 1.0 / 3.0},
    STAGE_BACKEND: {"base_ms": 80.0, "per_kb_ms": 0.02},
}


class ValidationError(Exception):
    """Raised by ``validate`` with the complete list of semantic violations."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@fields.declare
@dataclass(frozen=True)
class ClusterSpec:
    """One member cluster.

    Attributes:
        name: Unique cluster name.
        nodes: Worker node count.
        vcpus_per_node: vCPUs each node contributes.
        memory_gb: Memory per node; descriptive, not a scheduling constraint.
        role: ``edge`` or ``datacenter``.
    """

    name: str
    nodes: int = field(default=1, metadata={"bounds": ">= 1"})
    vcpus_per_node: int = field(default=1, metadata={"bounds": ">= 1"})
    memory_gb: float = field(default=8.0, metadata={"bounds": "> 0"})
    role: str = field(default=ROLE_EDGE, metadata={"one_of": ("role", ROLES)})


@fields.declare
@dataclass(frozen=True, kw_only=True)
class LinksSpec:
    """Inter-cluster link matrices, indexed by cluster declaration order.

    ``one_way_delay_ms[i][j]`` is the configured one-way delay injected on
    traffic from cluster i to cluster j. ``base_delay_ms`` is the fixed
    per-traversal cost of reaching the gateway (applied on every
    gateway-mediated hop in either direction); ``intra_base_delay_ms`` is the
    in-cluster hop cost.
    """

    base_delay_ms: float = field(default=0.0, metadata={"bounds": ">= 0"})
    intra_base_delay_ms: float = field(default=0.0, metadata={"bounds": ">= 0"})
    one_way_delay_ms: tuple[tuple[float, ...], ...]
    jitter: tuple[tuple[JitterSpec, ...], ...]
    loss: tuple[tuple[LossSpec, ...], ...]


@fields.declare
@dataclass(frozen=True)
class DemandSpec:
    """Stage demand in scenario units: ms base plus ms per kB of stage input."""

    base_ms: float = field(metadata={"bounds": ">= 0"})
    per_kb_ms: float = field(metadata={"bounds": ">= 0"})
    reduction: float = field(default=1.0, metadata={"bounds": "(0, 1]"})


@fields.declare
@dataclass(frozen=True)
class ServiceSpec:
    """One pipeline stage service and its replica placement."""

    name: str
    stage: str = field(metadata={"one_of": ("stage", STAGES)})
    replicas_per_cluster: dict[str, int]
    demand: DemandSpec
    backend_policy: str | None = field(default=None, metadata={"one_of": ("policy", POLICIES)})


@fields.declare
@dataclass(frozen=True, kw_only=True)
class FederationSpec:
    """Parsed scenario document, prior to semantic validation."""

    clusters: tuple[ClusterSpec, ...]
    links: LinksSpec
    services: tuple[ServiceSpec, ...] = ()
    workload: WorkloadSpec = WorkloadSpec()
    timeline: tuple[faults.TimelineEvent, ...] = ()
    seed: int = field(default=0, metadata={"bounds": "[0, 2^64)"})
    duration_s: float = field(metadata={"bounds": "> 0"})
    scrape_interval_s: float = field(default=5.0, metadata={"bounds": "> 0"})
    timeout_s: float = field(default=5.0, metadata={"bounds": "> 0"})
    rate_window_s: float = field(default=60.0, metadata={"bounds": "> 0"})


@dataclass(frozen=True)
class ResolvedService:
    """Service with placements resolved to cluster indices and demand in
    engine units."""

    name: str
    stage: str
    placements: tuple[tuple[int, int], ...]
    profile: StageProfile


@dataclass(frozen=True)
class ValidatedTopology:
    """Semantically valid federation, ready for ``build_runtime``. Everything
    the document states stays on ``spec``; this adds what validation
    resolved."""

    spec: FederationSpec
    index_of: dict[str, int]
    services: tuple[ResolvedService, ...]
    frontend: ResolvedService | None
    backend: ResolvedService | None
    backend_policy: str


_TIMELINE_ACTIONS = {
    faults.ACTION_SET_LINK: faults.SetLinkEvent,
    faults.ACTION_BLACKOUT: faults.BlackoutEvent,
    faults.ACTION_SET_HEALTH: faults.SetHealthEvent,
}
_ACTION_OF = {cls: action for action, cls in _TIMELINE_ACTIONS.items()}


_YAML_TAG = "tag:yaml.org,2002:"


def lean_loader(base: type) -> type:
    """``base`` (``yaml.SafeLoader`` or ``yaml.CSafeLoader``) with a lean
    ``construct_document``, which builds the document in one recursive pass
    without PyYAML's per-node bookkeeping: a scalar tagged ``str`` is its own
    text; one tagged ``float`` whose text holds no ``_`` is ``float(text)``
    if ``float`` takes that text, which is the base's value: the base strips
    one sign and every ``_``, lowercases the rest and calls ``float`` on it,
    and ``float`` takes a sign and any case itself; any other scalar tagged
    ``int``, ``float``, ``bool`` or ``null`` goes through the base's
    constructor for that tag, so YAML 1.1 forms such as ``0x1F``, ``.inf``,
    ``1:30`` or ``yes`` keep their meaning; a ``seq`` node becomes a list and
    a ``map`` node with scalar keys a dict, each made once per node and known
    before its children are built, so an alias is its anchor's object and a
    recursive anchor holds itself. Any other node (another tag, a merge or
    ``=`` key, a collection as a key), an error from a constructor, or
    nesting deeper than Python's recursion limit sends the whole document
    through the base's own ``construct_document``, which then gives PyYAML's
    result or error. Plain scalars' tags are resolved once per text within
    one load (a safe loader's tag for a plain scalar depends on its text
    alone); nothing outlives the loader, which ``yaml.load`` makes anew."""
    scalar_tags = [_YAML_TAG + name for name in ("int", "float", "bool", "null")]
    scalars = {tag: base.yaml_constructors[tag] for tag in scalar_tags}
    str_tag, float_tag, seq_tag, map_tag = (_YAML_TAG + name for name in ("str", "float", "seq", "map"))

    class Fallback(Exception):
        pass

    class Lean(base):
        def __init__(self, stream):
            super().__init__(stream)
            plain_tags: dict[str, str] = {}
            resolve = super().resolve

            def cached(kind, value, implicit):
                if kind is ScalarNode and implicit[0]:
                    tag = plain_tags.get(value)
                    if tag is None:
                        tag = plain_tags[value] = resolve(kind, value, implicit)
                    return tag
                return resolve(kind, value, implicit)

            # the composer calls resolve once per node; a closure skips the
            # attribute lookups a method would make
            self.resolve = cached

        def dispose(self):
            # the closure holds the loader's own bound resolve: a cycle
            super().dispose()
            del self.resolve

        def construct_document(self, node):
            built = {}  # collection node -> its object

            def build(node):
                cls, tag = node.__class__, node.tag
                if cls is ScalarNode:
                    if tag == str_tag:
                        return node.value
                    if tag == float_tag and "_" not in node.value:
                        try:
                            return float(node.value)
                        except ValueError:  # .inf, .nan, base 60, or a text the base rejects too
                            pass
                    if tag not in scalars:
                        raise Fallback
                    return scalars[tag](self, node)
                data = built.get(node)
                if data is not None:
                    return data
                if cls is SequenceNode and tag == seq_tag:
                    data = built[node] = []
                    data.extend([build(item) for item in node.value])
                    return data
                if cls is MappingNode and tag == map_tag:
                    data = built[node] = {}
                    for key, value in node.value:
                        if key.__class__ is not ScalarNode:
                            raise Fallback
                        data[build(key)] = build(value)
                    return data
                raise Fallback

            try:
                return build(node)
            except Exception:  # Fallback, RecursionError, or any constructor error
                # the base gives its own result, or raises its own error: of
                # two bad scalars it meets first the one PyYAML's order does
                return super().construct_document(node)
            finally:
                # build refers to itself and holds built, which holds every
                # collection node: a cycle that would leave the tree as garbage
                built.clear()
                del build

    Lean.__name__ = Lean.__qualname__ = f"Lean{base.__name__}"
    return Lean


# over libyaml's safe loader when PyYAML was built with it: its composer takes
# about a seventh of the pure-Python one's time, though it words syntax errors
# differently
_LOADER = lean_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_yaml(text: str, items: bool = False):
    """``text`` loaded by ``_LOADER``, or with ``items`` the list of the
    items of one flow sequence that ``text`` writes without its brackets;
    each way that fails is one ScenarioError message. A syntax error gives
    its position in ``text``: one past its end, or on its closing bracket,
    is given just past its end. A scalar that a safe constructor cannot
    build, such as ``!!bool maybe``, is a syntax error too.

    The cyclic garbage collector is paused while the document is loaded and
    turned back on afterwards, whatever the outcome, if it was on before.
    Composing a document allocates a node per scalar and collection, none of
    which can be garbage before the load ends, yet the collector keeps
    running as they are made, and its full runs walk every node made so far:
    left on, it makes the load's time grow faster than the document. The
    pause is process-wide and lasts one load: another thread of an embedding
    program runs without cyclic collection meanwhile, and a ``gc.disable()``
    it makes during the load is undone when the load ends, if the collector
    was on when it began."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return yaml.load(f"[{text}]" if items else text, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a timestamp such as 2001-13-01
        mark = getattr(exc, "problem_mark", None)
        where = ""
        if mark is not None:
            line, column = mark.line, mark.column - (items and mark.line == 0)  # less the added "["
            lines = text.split("\n")
            if line >= len(lines) or (line == len(lines) - 1 and column > len(lines[-1])):
                line, column = len(lines) - 1, len(lines[-1])  # just past the text
            where = f" at line {line + 1}, column {max(column, 0) + 1}"
        problem = getattr(exc, "problem", None) or str(exc)
        raise ScenarioError([f"syntax error{where}: {problem}"]) from exc
    except RecursionError as exc:  # PyYAML's pure-Python composer recurses once per level
        raise ScenarioError(["document: nested too deeply"]) from exc
    except Exception as exc:  # any other failure of a constructor, such as IndexError for !!float ''
        raise ScenarioError([f"syntax error: a value that cannot be built: {type(exc).__name__}: {exc}"]) from exc
    finally:
        if enabled:
            gc.enable()


def parse_scenario(text: str) -> FederationSpec:
    """Parse a scenario document. Raises ScenarioError on syntax errors,
    nesting too deep to compose, unknown fields, missing required fields,
    non-finite numbers, or shape mismatches.

    Any YAML that PyYAML's safe loader accepts loads to the same document:
    ``_LOADER`` builds plain lists, dicts and str/int/float/bool/null scalars
    itself and leaves every other node to PyYAML (see ``lean_loader``)."""
    doc = load_yaml(text)
    doc = as_map({} if doc is None else doc, "document")

    clusters = each(require(doc, "clusters", "document"), "clusters", partial(fields.build, ClusterSpec))
    if not clusters:
        fail("clusters: at least one cluster required")
    names = [cluster.name for cluster in clusters]
    return fields.build(
        FederationSpec,
        doc,
        "",
        clusters=clusters,
        links=_parse_links(doc.get("links", {}), names),
        services=each(doc.get("services", []), "services", _parse_service),
        timeline=each(doc.get("timeline", []), "timeline", _parse_event),
    )


def _parse_matrix(value, n: int, path: str) -> tuple[tuple[float, ...], ...]:
    rows = as_list(value, path)
    if len(rows) != n:
        fail(f"{path}: expected {n} rows, got {len(rows)}")
    matrix = []
    for i, row in enumerate(rows):
        row = as_list(row, f"{path}[{i}]")
        if len(row) != n:
            fail(f"{path}[{i}]: expected {n} entries, got {len(row)}")
        matrix.append(each(row, f"{path}[{i}]", fields.as_number))
    return tuple(matrix)


def _parse_sparse(value, names: list[str], path: str, cls, required: str):
    """``src``/``dst`` entries over a matrix of one shared ``cls()`` default
    (the specs are frozen)."""
    n = len(names)
    index_of = {}
    for k, name in enumerate(names):
        index_of.setdefault(name, k)  # a duplicate name is validate's to report; the first one wins
    default = cls()
    rows = [[default] * n for _ in range(n)]
    for k, item in enumerate(as_list(value, path)):
        entry_path = f"{path}[{k}]"
        entry = as_map(item, entry_path)
        fields.check_keys(entry, cls, entry_path, extra=("src", "dst"))
        i, j = (_cluster_index(entry, key, index_of, entry_path) for key in ("src", "dst"))
        require(entry, required, entry_path)
        rows[i][j] = fields.build(cls, entry, entry_path, extra=("src", "dst"))
    return tuple(tuple(row) for row in rows)


def _cluster_index(entry: dict, key: str, index_of: dict[str, int], path: str) -> int:
    name = as_str(require(entry, key, path), f"{path}.{key}")
    if name not in index_of:
        fail(f"{path}.{key}: unknown cluster '{name}'")
    return index_of[name]


def _parse_links(value, names: list[str]) -> LinksSpec:
    n = len(names)
    entry = as_map(value, "links")
    fields.check_keys(entry, LinksSpec, "links")
    if "one_way_delay_ms" in entry:
        delay = _parse_matrix(entry["one_way_delay_ms"], n, "links.one_way_delay_ms")
    else:
        delay = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
    return fields.build(
        LinksSpec,
        entry,
        "links",
        one_way_delay_ms=delay,
        jitter=_parse_sparse(entry.get("jitter", []), names, "links.jitter", JitterSpec, "dist"),
        loss=_parse_sparse(entry.get("loss", []), names, "links.loss", LossSpec, "p"),
    )


def _parse_service(value, path: str) -> ServiceSpec:
    entry = as_map(value, path)
    fields.check_keys(entry, ServiceSpec, path)
    stage = as_str(require(entry, "stage", path), f"{path}.stage")
    defaults = STAGE_DEMAND.get(stage, STAGE_DEMAND[STAGE_FRONTEND])
    demand = {**defaults, **as_map(entry.get("demand", {}), f"{path}.demand")}
    placement_doc = as_map(require(entry, "replicas_per_cluster", path), f"{path}.replicas_per_cluster")
    placements = {}
    for cluster_name, count in placement_doc.items():
        cluster_name = as_str(cluster_name, f"{path}.replicas_per_cluster key")
        placements[cluster_name] = fields.as_int(count, f"{path}.replicas_per_cluster['{cluster_name}']")
    return fields.build(
        ServiceSpec,
        entry,
        path,
        stage=stage,
        replicas_per_cluster=placements,
        demand=fields.build(DemandSpec, demand, f"{path}.demand"),
    )


def _parse_event(value, path: str) -> faults.TimelineEvent:
    entry = as_map(value, path)
    action = as_str(require(entry, "action", path), f"{path}.action")
    if action not in _TIMELINE_ACTIONS:
        fail(f"{path}.action: unknown action '{action}'")
    return fields.build(_TIMELINE_ACTIONS[action], entry, path, extra=("action",))


def load_scenario(path: str | Path) -> FederationSpec:
    """Read and parse a scenario file. I/O errors propagate to the caller."""
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def render_scenario(spec: FederationSpec) -> str:
    """Render a spec back to canonical YAML (defaults made explicit, sparse
    matrix entries sorted row-major, replica maps in cluster order)."""
    names = [cluster.name for cluster in spec.clusters]
    order = {name: k for k, name in enumerate(names)}

    def sparse(matrix, default):
        entries = [
            {"src": names[i], "dst": names[j], **fields.render(cell)}
            for i, row in enumerate(matrix)
            for j, cell in enumerate(row)
            if cell != default
        ]
        return entries or None

    def service(svc: ServiceSpec) -> dict:
        placement_order = sorted(svc.replicas_per_cluster, key=lambda n: (order.get(n, len(order)), n))
        replicas = {name: svc.replicas_per_cluster[name] for name in placement_order}
        return fields.render(svc, replicas_per_cluster=replicas)

    doc = fields.render(
        spec,
        links=fields.render(
            spec.links, jitter=sparse(spec.links.jitter, JitterSpec()), loss=sparse(spec.links.loss, LossSpec())
        ),
        services=[service(svc) for svc in spec.services],
        timeline=[{"action": _ACTION_OF[type(event)], **fields.render(event)} for event in spec.timeline] or None,
    )
    return yaml.safe_dump(doc, sort_keys=False)


def validate(spec: FederationSpec) -> ValidatedTopology:
    """Semantic validation. Collects every violation; raises ValidationError
    listing all of them, otherwise returns the resolved topology."""
    errors: list[str] = []
    fields.check(spec, "", errors)
    _check_names(spec.clusters, "clusters", errors)
    index_of = {cluster.name: k for k, cluster in enumerate(spec.clusters)}

    _validate_links(spec.links, len(spec.clusters), errors)
    frontend_spec, backend_spec, backend_policy = _validate_services(spec.services, index_of, errors)
    profiles = [
        StageProfile(
            stage=service.stage,
            base_demand_s=service.demand.base_ms * 1e-3,
            per_byte_demand_s=service.demand.per_kb_ms * 1e-6,
            reduction_factor=service.demand.reduction,
        )
        for service in spec.services
    ]

    payload = spec.workload.payload
    largest = None  # the largest payload a draw can give, once it is known to be a float
    if payload.dist == PAYLOAD_EMPIRICAL:
        if not payload.values:
            errors.append("workload.payload.values: empty")
        elif any(v < 1 for v in payload.values):
            errors.append("workload.payload.values: sizes must be >= 1")
        elif max(payload.values) > MAX_PAYLOAD_BYTES:
            errors.append(f"workload.payload.values: must be at most the largest float, {MAX_PAYLOAD_BYTES!r}")
        else:
            largest = max(payload.values)
    elif payload.dist == PAYLOAD_CONSTANT:
        if payload.bytes > MAX_PAYLOAD_BYTES:
            errors.append(f"workload.payload.bytes: must be at most the largest float, {MAX_PAYLOAD_BYTES!r}")
        else:
            largest = payload.bytes
    elif payload.dist == PAYLOAD_LOGNORMAL:
        if payload.mu + 10 * payload.sigma > MAX_LOG_PAYLOAD:
            errors.append(
                f"workload.payload: mu + 10 * sigma = {payload.mu + 10 * payload.sigma!r} exceeds "
                f"ln(max float) = {MAX_LOG_PAYLOAD!r}; lognormal draws would overflow"
            )
        else:
            largest = math.exp(payload.mu + 10 * payload.sigma)
    if largest is not None:
        _check_demands(profiles, frontend_spec, largest, errors)
    if spec.scrape_interval_s > 0 and spec.duration_s / spec.scrape_interval_s > MAX_SCRAPES:
        errors.append(
            f"scrape_interval_s: {spec.scrape_interval_s!r} gives more than {MAX_SCRAPES} scrapes "
            f"over duration_s {spec.duration_s!r}"
        )
    generates_traffic = any(phase.rate > 0 for phase in spec.workload.phases)
    if generates_traffic and (frontend_spec is None or backend_spec is None):
        errors.append("workload requires one frontend and one backend service")

    placement_map = {
        service.name: {
            index_of[name]: count
            for name, count in service.replicas_per_cluster.items()
            if name in index_of
        }
        for service in spec.services
    }
    errors.extend(faults.check_timeline(spec.timeline, index_of, placement_map))

    if errors:
        raise ValidationError(errors)

    services = []
    frontend = backend = None
    for service, profile in zip(spec.services, profiles):
        placements = tuple(
            (index_of[name], count)
            for name, count in sorted(service.replicas_per_cluster.items(), key=lambda kv: index_of[kv[0]])
            if count > 0
        )
        resolved = ResolvedService(service.name, service.stage, placements, profile)
        services.append(resolved)
        if service.stage == STAGE_FRONTEND:
            frontend = resolved
        else:
            backend = resolved

    return ValidatedTopology(
        spec=spec,
        index_of=index_of,
        services=tuple(services),
        frontend=frontend,
        backend=backend,
        backend_policy=backend_policy,
    )


def _check_demands(profiles, frontend: ServiceSpec | None, largest_bytes: float, errors: list[str]) -> None:
    """Each stage's ``workload.service_demand`` for the largest payload must
    be finite; the backend serves the frontend's reduced bytes."""
    for k, profile in enumerate(profiles):
        input_bytes = largest_bytes
        if profile.stage == STAGE_BACKEND and frontend is not None:
            input_bytes = largest_bytes * frontend.demand.reduction
        if not math.isfinite(workload.service_demand(profile, input_bytes)):
            errors.append(
                f"services[{k}].demand: base_ms + per_kb_ms * {input_bytes / 1000!r} kB, the largest payload, "
                "overflows a float"
            )


def _check_names(items, section: str, errors: list[str]) -> None:
    seen: set[str] = set()
    for k, item in enumerate(items):
        if not item.name:
            errors.append(f"{section}[{k}].name: empty")
        elif item.name in seen:
            errors.append(f"{section}[{k}].name: duplicate '{item.name}'")
        seen.add(item.name)


def _validate_links(links: LinksSpec, n: int, errors: list[str]) -> None:
    for matrix_name, matrix in (
        ("one_way_delay", links.one_way_delay_ms),
        ("jitter", links.jitter),
        ("loss", links.loss),
    ):
        if len(matrix) != n or any(len(row) != n for row in matrix):
            errors.append(f"links.{matrix_name}: expected {n}x{n} matrix")
            return
    for i in range(n):
        for j in range(n):
            delay = links.one_way_delay_ms[i][j]
            jit = links.jitter[i][j]
            loss = links.loss[i][j]
            if i == j:
                if delay != 0:
                    errors.append(f"one_way_delay[{i}][{i}] != 0")
                if jit.dist != JITTER_NONE:
                    errors.append(f"jitter[{i}][{i}] must be none")
                if loss.p != 0:
                    errors.append(f"loss[{i}][{i}].p != 0")
                continue
            if delay < 0:
                errors.append(f"one_way_delay[{i}][{j}] < 0")
            fields.check(jit, f"jitter[{i}][{j}]", errors)
            fields.check(loss, f"loss[{i}][{j}]", errors)


def _validate_services(services: tuple[ServiceSpec, ...], index_of: dict[str, int], errors: list[str]):
    _check_names(services, "services", errors)
    frontend = backend = None
    policies_seen: set[str] = set()
    for k, service in enumerate(services):
        path = f"services[{k}]"
        if service.stage == STAGE_FRONTEND:
            if frontend is not None:
                errors.append("services: more than one frontend service")
            frontend = service
        elif service.stage == STAGE_BACKEND:
            if backend is not None:
                errors.append("services: more than one backend service")
            backend = service

        total = 0
        for name, count in service.replicas_per_cluster.items():
            if name not in index_of:
                errors.append(f"{path}.replicas_per_cluster: unknown cluster '{name}'")
            if count < 0:
                errors.append(f"{path}.replicas_per_cluster['{name}'] < 0")
            else:
                total += count
        if total < 1:
            errors.append(f"{path}: at least one replica required")
        if service.backend_policy in POLICIES:
            policies_seen.add(service.backend_policy)
    if len(policies_seen) > 1:
        errors.append("services: conflicting backend_policy values")
    policy = next(iter(policies_seen)) if policies_seen else ROUND_ROBIN
    return frontend, backend, policy


def build_runtime(topology: ValidatedTopology):
    """Construct the engine for a validated topology. The event queue starts
    empty; the first ``run`` primes timeline, scrape, and arrival events."""
    return EngineState(topology)
