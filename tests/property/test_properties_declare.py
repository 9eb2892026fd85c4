"""Property-based tests: the one declaration codec (``repro.declare``).

Two contracts, for every declaration class:

1. A valid generated instance survives ``decode(encode(x)) == x``.
2. Its encoded dict with one key renamed, or one value retyped, anywhere
   in the tree is refused with the family's own error, and the message
   starts with the path of what was changed — never a raw ``TypeError``,
   ``KeyError`` or ``AttributeError``.  A numeric field retyped to
   ``True`` is refused too: a bool never counts as a number; so is NaN
   or ±Infinity in a float field.

And one for the grid: a grid dict that ``decode`` accepts — names and
numbers drawn in and out of range — builds, into exactly what it declares.
"""

import copy
import math
import typing
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigError, FileConfig, GridConfig, LinkConfig, SiteConfig
from repro.core.steering.optimizer import SteeringPolicy
from repro.declare import decode, encode
from repro.gridsim.grid import build_grid
from repro.gridsim.job import TaskSpec
from repro.observability.health import RULE_KINDS, HealthRule, HealthRuleError
from repro.observability.telemetry import REDUCERS
from repro.scenarios.spec import (
    CHAOS_KINDS,
    SLO_METRICS,
    WORKLOAD_SHAPES,
    ChaosAction,
    ScenarioError,
    ScenarioSpec,
    SloSpec,
    VoShape,
    WorkloadShape,
)

SITES = ("siteA", "siteB", "siteC")
names = st.text("abcdefgh-_", min_size=1, max_size=8)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


#: What a float field must refuse even where a number is expected.
NON_FINITE = [math.nan, math.inf, -math.inf]


def numbers(lo, hi):
    """A number in or out of a field's range, NaN and ±Infinity included."""
    return floats(lo, hi) | st.sampled_from(NON_FINITE)


site_configs = st.builds(
    SiteConfig, name=st.sampled_from(SITES), nodes=st.integers(1, 8),
    cpus_per_node=st.integers(1, 4), background_load=floats(0.0, 3.0),
    cpu_hour_rate=floats(0.0, 5.0), idle_hour_rate=floats(0.0, 1.0),
)


@st.composite
def grid_configs(draw):
    sites = draw(st.lists(site_configs, min_size=1, max_size=3, unique_by=lambda s: s.name))
    declared = st.sampled_from([site.name for site in sites])
    pairs = st.lists(declared, min_size=2, max_size=2, unique=True)
    return GridConfig(
        sites=sites,
        links=draw(st.lists(st.builds(
            LinkConfig, a=declared, b=declared, capacity_mbps=floats(1.0, 1000.0),
            latency_s=floats(0.0, 1.0), utilization=floats(0.0, 0.9),
        ), max_size=2, unique_by=lambda link: frozenset((link.a, link.b)))),
        files=draw(st.lists(st.builds(
            FileConfig, name=names, size_mb=floats(0.0, 1e4), at=declared,
        ), max_size=2)),
        flocking=draw(st.lists(pairs, max_size=2)) if len(sites) > 1 else [],
        probe_noise=draw(floats(0.0, 0.5)),
    )


vo_shapes = st.builds(
    VoShape, owner=names, tasks=st.integers(1, 6), priority=st.integers(0, 10),
    mean_seconds=floats(1.0, 1e4),
)


@st.composite
def workload_shapes(draw):
    shape = draw(st.sampled_from(WORKLOAD_SHAPES))
    return WorkloadShape(
        shape=shape, owner=draw(names), tasks=draw(st.integers(1, 6)),
        mean_seconds=draw(floats(1.0, 1e4)), interval_s=draw(floats(0.0, 600.0)),
        period_s=draw(floats(1.0, 5000.0)), burst_at_s=draw(floats(0.0, 1000.0)),
        burst_tasks=draw(st.integers(1, 9)), analysis_tasks=draw(st.integers(1, 5)),
        vos=tuple(draw(st.lists(vo_shapes, min_size=1, max_size=3)))
        if shape == "multi_vo" else (),
    )


@st.composite
def chaos_actions(draw, sites=SITES, links=None):
    """A chaos action; given a grid's *links* (site pairs), a ``degrade``
    names one of them and a ``partition`` cuts one, as a scenario
    requires (with none, neither kind is drawn)."""
    kinds = CHAOS_KINDS if links is None or links else [
        kind for kind in CHAOS_KINDS if kind not in ("degrade", "partition")
    ]
    kind = draw(st.sampled_from(kinds))
    start = draw(floats(0.0, 500.0))
    site = st.sampled_from(sites)
    pair = draw(st.sampled_from(links)) if links and kind in ("degrade", "partition") else None
    if kind == "partition":
        cut = (pair[0],) if pair else tuple(draw(st.lists(site, min_size=1, max_size=2)))
    if kind == "degrade":
        link = pair or (draw(site), draw(site))
    return ChaosAction(
        kind=kind,
        site=draw(site) if kind in ("outage", "flapping") else "",
        sites=cut if kind == "partition" else (),
        link=link if kind == "degrade" else ("", ""),
        start_s=start,
        end_s=draw(st.sampled_from([0.0, start + 100.0])),
        duration_s=draw(floats(1.0, 500.0)),
        period_s=draw(floats(1.0, 500.0)),
        duty=draw(floats(0.1, 1.0)),
        utilization=draw(floats(0.0, 0.9)),
        mean_utilization=draw(floats(0.0, 0.9)),
        volatility=draw(floats(0.0, 0.5)),
    )


slo_specs = st.builds(
    SloSpec, metric=st.sampled_from(sorted(SLO_METRICS)), op=st.sampled_from(["<=", ">="]),
    threshold=floats(0.0, 1e4), percentile=floats(1.0, 100.0),
)


@st.composite
def health_rules(draw):
    kind = draw(st.sampled_from(RULE_KINDS))
    burn = kind == "burn_rate"
    return HealthRule(
        name=draw(names), kind=kind, series="" if burn else draw(names),
        op=draw(st.sampled_from(["<", "<=", ">", ">="])), threshold=draw(floats(0.0, 100.0)),
        reducer=draw(st.sampled_from(REDUCERS)), windows=draw(st.integers(1, 5)),
        for_windows=draw(st.integers(1, 5)), clear_windows=draw(st.integers(1, 5)),
        severity=draw(st.sampled_from(["info", "warning", "critical"])),
        good_series=draw(names) if burn else "", bad_series=draw(names) if burn else "",
        budget=draw(floats(0.01, 1.0)),
    )


steering_policies = st.builds(
    SteeringPolicy, preference=st.sampled_from(["fast", "cheap"]),
    poll_interval_s=floats(1.0, 600.0), min_elapsed_wall_s=floats(0.0, 600.0),
    slow_rate_threshold=floats(0.01, 1.0), min_improvement_factor=floats(1.0, 3.0),
    auto_move=st.booleans(),
)


@st.composite
def scenario_specs(draw):
    grid = draw(grid_configs())
    declared = tuple(site.name for site in grid.sites)
    links = [(link.a, link.b) for link in grid.links if link.a != link.b]
    policy = encode(draw(steering_policies))
    return ScenarioSpec(
        name=draw(names), description=draw(names), grid=grid,
        workload=draw(workload_shapes()),
        chaos=tuple(draw(st.lists(chaos_actions(declared, links), max_size=2))),
        slos=tuple(draw(st.lists(slo_specs, max_size=2))),
        health_rules=tuple(draw(st.lists(health_rules(), max_size=2))),
        policy={key: policy[key] for key in draw(st.lists(st.sampled_from(sorted(policy))))},
        tags=tuple(draw(st.lists(names, max_size=2))),
        seed=draw(st.integers(0, 2**20)),
        horizon_s=draw(floats(1.0, 5000.0)),
        quick=draw(st.sampled_from([{}, {"horizon_s": 100.0}])),
    )


task_specs = st.builds(
    TaskSpec, owner=names, account=names, partition=names, queue=names,
    nodes=st.integers(1, 8), task_type=st.sampled_from(["batch", "interactive"]),
    requested_cpu_hours=floats(0.01, 100.0), executable=names,
    arguments=st.lists(names, max_size=2).map(tuple),
    input_files=st.lists(names, max_size=2).map(tuple),
    output_files=st.lists(names, max_size=2).map(tuple),
    priority=st.integers(-5, 10), environment=st.dictionaries(names, names, max_size=2),
)

#: (class, root path, family error, valid instances), every declaration.
DECLARATIONS = [
    (SiteConfig, "site", ConfigError, site_configs),
    (GridConfig, "grid", ConfigError, grid_configs()),
    (VoShape, "vo", ScenarioError, vo_shapes),
    (WorkloadShape, "workload", ScenarioError, workload_shapes()),
    (ChaosAction, "chaos", ScenarioError, chaos_actions()),
    (SloSpec, "slo", ScenarioError, slo_specs),
    (ScenarioSpec, "scenario", ScenarioError, scenario_specs()),
    (HealthRule, "rule", HealthRuleError, health_rules()),
    (SteeringPolicy, "policy", ScenarioError, steering_policies),
    (TaskSpec, "spec", ValueError, task_specs),
]
IDS = [cls.__name__ for cls, _, _, _ in DECLARATIONS]

#: Values of the wrong type for a field of each annotation.
WRONG = {str: [7, None, ["x"]], int: [True, "1", 1.5], float: [True, "0.1", None, *NON_FINITE],
         bool: ["no", 1, None]}


def positions(obj, path, route):
    """``(path, route, field, annotation)`` for every field of every
    declaration in *obj*'s tree; *route* is the keys to its encoded dict."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        yield path, route, f.name, hints[f.name]
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from positions(value, f"{path}.{f.name}", route + [f.name])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if is_dataclass(item):
                    yield from positions(item, f"{path}.{f.name}[{i}]", route + [f.name, i])


def wrong_values(annotation):
    if annotation in WRONG:
        return WRONG[annotation]
    if annotation is object:
        return []
    if is_dataclass(annotation):
        return ["x", []]
    if typing.get_origin(annotation) in (list, tuple):
        return ["ab", {"a": 1}]
    return ["x", ["x"]]  # a Dict / Mapping


def at(tree, route):
    for key in route:
        tree = tree[key]
    return tree


@pytest.mark.parametrize("cls, root, family, instances", DECLARATIONS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_valid_declaration_round_trips(cls, root, family, instances, data):
    value = data.draw(instances)
    assert decode(cls, encode(value), root, family) == value


@pytest.mark.parametrize("cls, root, family, instances", DECLARATIONS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_renamed_key_is_refused_at_its_path(cls, root, family, instances, data):
    value = data.draw(instances)
    path, route, name, _ = data.draw(st.sampled_from(list(positions(value, root, []))))
    tree = encode(value)
    node = at(tree, route)
    node[name + "_x"] = node.pop(name)
    with pytest.raises(family) as raised:
        decode(cls, tree, root, family)
    assert type(raised.value) is family
    assert str(raised.value) == f"{path}: unknown keys ['{name}_x']"


@pytest.mark.parametrize("cls, root, family, instances", DECLARATIONS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_retyped_value_is_refused_at_its_path(cls, root, family, instances, data):
    value = data.draw(instances)
    retypable = [p for p in positions(value, root, []) if wrong_values(p[3])]
    path, route, name, annotation = data.draw(st.sampled_from(retypable))
    for wrong in wrong_values(annotation):
        tree = encode(value)
        at(tree, route)[name] = wrong
        with pytest.raises(family) as raised:
            decode(cls, tree, root, family)
        assert type(raised.value) is family
        assert str(raised.value).startswith(f"{path}.{name}: expected "), str(raised.value)


@st.composite
def grid_dicts(draw):
    """A scenario file's grid: a valid grid's dict with up to three
    entries added (fresh or copied) or numbers redrawn, in or out of
    range — a site named twice, a link, file or flocking pair at an
    undeclared site, a self-flock or a flocking entry of another length,
    two links between one pair, a count below one, a negative or too
    large number."""
    tree = encode(draw(grid_configs()))
    names = st.sampled_from([site["name"] for site in tree["sites"]] + ["siteZ"])
    added = {
        "sites": st.fixed_dictionaries({"name": names, "nodes": st.integers(-1, 2)}),
        "links": st.fixed_dictionaries(
            {"a": names, "b": names, "capacity_mbps": numbers(-1.0, 100.0)}
        ),
        "files": st.fixed_dictionaries(
            {"name": names, "size_mb": numbers(-1.0, 10.0), "at": names}
        ),
        "flocking": st.lists(names, min_size=2, max_size=2) | st.lists(names, max_size=3),
    }
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(sorted(added) + ["probe_noise"]))
        if part == "probe_noise":
            tree[part] = draw(numbers(-1.0, 1.0))
        elif part == "flocking" or not tree[part] or draw(st.booleans()):
            # A fresh entry, or a copy of one already there.
            copied = st.sampled_from(tree[part]).map(copy.copy) if tree[part] else st.nothing()
            tree[part].append(draw(added[part] | copied))
        else:  # redraw one number of an entry
            entry = draw(st.sampled_from(tree[part]))
            key = draw(st.sampled_from([k for k, v in entry.items() if not isinstance(v, str)]))
            redrawn = st.integers(-1, 2) if isinstance(entry[key], int) else numbers(-1.0, 2.0)
            entry[key] = draw(redrawn)
    return tree


@settings(max_examples=500, deadline=None)
@given(data=grid_dicts())
def test_a_grid_decode_accepts_builds_what_it_declares(data):
    try:
        config = decode(GridConfig, data, "grid", ConfigError)
    except ConfigError:
        return
    grid = build_grid(config, seed=1)
    assert list(grid.sites) == [site.name for site in config.sites]
    for site in config.sites:
        nodes = grid.site(site.name).nodes
        assert len(nodes) == site.nodes
        assert {node.cpu_count for node in nodes} == {site.cpus_per_node}
    # No link replaced another: each declared one is the network's.
    assert len(grid.network.links()) == len(config.links)
    for file in config.files:
        assert file.at in grid.catalog.replicas(file.name)
    for src, dst in config.flocking:
        assert grid.sites[dst].pool in grid.sites[src].pool.flock_targets
