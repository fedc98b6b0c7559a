"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a parameter study — the paper's evaluation
grid of {model} x {bandwidth} x {method} (Figs. 3/5/6, Table 1) is the
canonical example — as data rather than nested loops.  Axes compose three
ways:

* ``axes`` (grid): a cartesian product, one cell per combination;
* ``zipped``: equal-length lists advanced together (e.g. each model with its
  own target accuracy);
* ``cells``: explicit override dicts appended verbatim (corner cases that do
  not fit a product).

``expand()`` resolves the composition into a deduplicated list of
:class:`CampaignCell`\\ s — concrete ``(ExperimentConfig, MethodSpec)`` pairs
ready for the runner.  Axis names route automatically: experiment fields
(``model``, ``epochs``, ``seed`` ...) into :class:`ExperimentConfig`, cluster
fields (``bandwidth``, ``world_size``, ``overlap``, ``hierarchical``,
``faults`` ...) into :class:`ClusterSpec`, ``method`` resolves through
the spec's method table, the paper's named methods, then the compressor
registry / codec spec grammar, and :class:`MethodSpec` field names
(``error_feedback``, ``pruning_ratio``, ``quantize`` ...) override the
resolved method per cell — so ``"error_feedback": [false, true]`` sweeps
every method with and without the driver's error-feedback residual state.
A retired field routes like a live one; its spec drops it at its retired
value and rejects any other by name.

Specs are built from plain dicts (``from_dict``, which ignores a spec file's
``store`` key); :func:`load_spec_file` reads one from a JSON or TOML file,
which is what ``python -m repro sweep`` drives.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.campaign.store import (
    canonical_json,
    cell_identity,
    identity_fingerprint,
    splice_identity,
)
from repro.simulation.cluster import ClusterSpec
from repro.simulation.spec import PAPER_METHODS, ExperimentConfig, MethodSpec, drop_retired

#: Axis names that configure the experiment itself (minus the nested cluster).
CONFIG_AXES = frozenset(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "cluster"
)
#: Axis names that configure the simulated cluster.
CLUSTER_AXES = frozenset(f.name for f in dataclasses.fields(ClusterSpec))
#: The method axis selects the synchronisation method per cell.
METHOD_AXIS = "method"
#: Axis names that override fields of the resolved method — e.g.
#: ``"error_feedback": [false, true]`` sweeps every method with and without
#: the driver's error-feedback residual state.  ``name`` is excluded (it
#: identifies the method; override it via a dict-valued ``method`` axis).
METHOD_FIELD_AXES = frozenset(
    f.name for f in dataclasses.fields(MethodSpec) if f.name != "name"
)
#: Axis names that build the cell's method, its retired fields included.
METHOD_SIDE = frozenset({METHOD_AXIS, *METHOD_FIELD_AXES, *MethodSpec.RETIRED})


@dataclass(frozen=True)
class CampaignCell:
    """One concrete experiment of a campaign: a workload and a method.

    A cell is serialised once: :attr:`identity` is computed on first use and
    kept, and expansion's dedupe, the runner's cache lookup and the store
    write all derive from it.  :meth:`CampaignSpec.expand` goes further and
    serialises each *distinct* spec once, so cells of one expansion may share
    their ``config`` and ``method`` objects (every cell of one config-side
    grid point holds the same :class:`ExperimentConfig`).  Nothing in
    ``repro`` mutates a cell's specs; build a new cell instead of mutating
    one.
    """

    config: ExperimentConfig
    method: MethodSpec

    def __post_init__(self) -> None:
        # An unsupported regime x fault-plan cell fails at expansion, before
        # the campaign dispatches anything.
        plan = self.config.cluster.faults
        if plan is not None:
            plan.validate_for_regime(self.method.schedule().regime)

    @property
    def label(self) -> str:
        """Short human-readable identity used in progress lines and tables."""
        cluster = self.config.cluster
        bandwidth = cluster.bandwidth
        if not isinstance(bandwidth, str):
            bandwidth = f"{bandwidth * 8 / 1e6:g}Mbps"
        return (
            f"{self.config.model}/{self.method.name}"
            f"@{bandwidth}/w{cluster.world_size}/seed{self.config.seed}"
        )

    @functools.cached_property
    def identity(self) -> str:
        """Canonical JSON of the complete cell specification."""
        return cell_identity(self.config, self.method)

    def fingerprint(self) -> str:
        """Content hash of the cell (the store's cache key): equal to
        ``cell_fingerprint(self.config, self.method)``."""
        return identity_fingerprint(self.identity)


def resolve_method(
    value: Union[str, Dict, MethodSpec],
    methods: Optional[Dict[str, MethodSpec]] = None,
) -> MethodSpec:
    """Resolve a method axis value into a :class:`MethodSpec`.

    Strings look up the campaign's own method table first, then the paper's
    five named methods, and otherwise are taken as a compressor registry name
    or codec pipeline spec (``"topk0.01+terngrad"``).  Dicts build a
    :class:`MethodSpec` directly.
    """
    if isinstance(value, MethodSpec):
        return value
    if isinstance(value, dict):
        return MethodSpec.from_dict(value)
    if methods and value in methods:
        return methods[value]
    if value in PAPER_METHODS:
        return PAPER_METHODS[value]
    return MethodSpec(name=value, compressor=value)


def _route(merged: Dict) -> tuple:
    """Sort merged axis values into ``(config kwargs, cluster kwargs, method
    value, method-field overrides)``; an unknown axis name raises here."""
    config_kwargs: Dict = {}
    cluster_kwargs: Dict = {}
    method_overrides: Dict = {}
    method_value: Union[str, Dict, MethodSpec] = "all-reduce"
    for name, value in merged.items():
        if name == METHOD_AXIS:
            method_value = value
        elif name == "cluster":
            if not isinstance(value, dict):
                raise TypeError(f"'cluster' must be a dict of ClusterSpec fields, got {value!r}")
            cluster_kwargs.update(value)
        elif name in CONFIG_AXES or name in ExperimentConfig.RETIRED:
            config_kwargs[name] = value
        elif name in CLUSTER_AXES or name in ClusterSpec.RETIRED:
            cluster_kwargs[name] = value
        elif name in METHOD_FIELD_AXES or name in MethodSpec.RETIRED:
            method_overrides[name] = value
        else:
            raise KeyError(
                f"unknown campaign axis {name!r}; experiment axes: {sorted(CONFIG_AXES)}, "
                f"cluster axes: {sorted(CLUSTER_AXES)}, method-field axes: "
                f"{sorted(METHOD_FIELD_AXES)}, or 'method'"
            )
    return config_kwargs, cluster_kwargs, method_value, method_overrides


def _build_method(
    method_value: Union[str, Dict, MethodSpec],
    method_overrides: Dict,
    methods: Optional[Dict[str, MethodSpec]],
) -> MethodSpec:
    method = resolve_method(method_value, methods)
    method_overrides = drop_retired(MethodSpec, method_overrides)
    if method_overrides:
        renamed = method.name
        # A compressor override must be reflected in the reported method name
        # — otherwise every cell of a compressor axis reports under the base
        # method's name and distinct compressors silently merge in pivots.
        # Only explicitly curated methods (dict values, MethodSpec instances,
        # the campaign's own methods table) keep their given name.
        curated = not isinstance(method_value, str) or bool(
            methods and method_value in methods
        )
        new_compressor = method_overrides.get("compressor")
        if new_compressor is not None and not curated:
            renamed = new_compressor
        # Keep EF on/off arms distinguishable in method-keyed reports: the
        # forced-on arm gains the ef+ prefix, the forced-off arm (which strips
        # even spec-default compensation, e.g. top-k's) a -noef suffix.
        ef_override = method_overrides.get("error_feedback")
        if ef_override and not method.error_feedback and not renamed.startswith("ef+"):
            renamed = f"ef+{renamed}"
        elif ef_override is False and not renamed.endswith("-noef"):
            renamed = f"{renamed}-noef"
        # A sync-schedule axis changes the training regime, not just a knob:
        # suffix non-synchronous arms so sync and async cells of the same
        # method stay distinguishable in method-keyed reports.  The schedule
        # is validated here (fail at expansion, not mid-campaign).
        schedule_override = method_overrides.get("sync_schedule")
        if schedule_override is not None:
            from repro.simulation.regimes import parse_sync_schedule  # noqa: PLC0415

            parsed = parse_sync_schedule(schedule_override)
            suffix = f"@{parsed.spec()}"
            if not parsed.is_synchronous and not renamed.endswith(suffix):
                renamed = f"{renamed}{suffix}"
        method = dataclasses.replace(method, name=renamed, **method_overrides)
    return method


def build_cell(
    overrides: Dict,
    base: Optional[Dict] = None,
    methods: Optional[Dict[str, MethodSpec]] = None,
) -> CampaignCell:
    """Construct one cell from base settings plus per-cell axis overrides."""
    config_kwargs, cluster_kwargs, method_value, method_overrides = _route(
        {**(base or {}), **overrides}
    )
    # ``from_dict`` drops a retired field at its retired value, as for a
    # stored record, and names it in the error at any other.
    config = ExperimentConfig.from_dict({**config_kwargs, "cluster": cluster_kwargs})
    return CampaignCell(config=config, method=_build_method(method_value, method_overrides, methods))


def _memo_key(value):
    """A hashable stand-in for an axis value, equal only for values that
    :func:`build_cell` cannot tell apart.

    The type is part of the key (``1``, ``1.0`` and ``True`` build different
    specs), a float is keyed by its exact bits (``-0.0`` is not ``0.0``), and
    containers are keyed by their items in order.  Anything else — a
    :class:`MethodSpec`, a ``DeviceSpec``, a ``FaultPlan`` — is keyed by
    identity, which the spec holding it keeps alive for the whole expansion.
    """
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return kind, value
    if kind is float:
        return kind, value.hex()
    if kind is dict:
        return kind, tuple((_memo_key(name), _memo_key(item)) for name, item in value.items())
    if kind is list or kind is tuple:
        return kind, tuple(_memo_key(item) for item in value)
    return kind, id(value)


class _SpecMemo:
    """The specs of one :meth:`CampaignSpec.expand` call, each built and
    serialised once.

    A cell's config depends only on its config-side overrides (experiment
    and cluster axes, and any unknown name, which fails on a miss) and its
    method only on its method-side ones (:data:`METHOD_SIDE`, a retired
    method field included, so each of its values is a miss that checks it):
    ``base`` and ``methods`` are fixed for the call.  Each side is
    keyed by its override items in order, so a key merges exactly the
    values :func:`build_cell` would.  A miss builds through the same
    :func:`_route`, raising what ``build_cell`` raises.
    """

    def __init__(self, base: Dict, methods: Dict[str, MethodSpec]) -> None:
        self.base = base
        self.methods = methods
        self.configs: Dict[tuple, tuple] = {}
        self.method_specs: Dict[tuple, tuple] = {}

    def cell(self, overrides: Dict) -> CampaignCell:
        config_key = []
        method_key = []
        for name, value in overrides.items():
            side = method_key if name in METHOD_SIDE else config_key
            side.append((name, _memo_key(value)))
        config_key, method_key = tuple(config_key), tuple(method_key)
        config_entry = self.configs.get(config_key)
        method_entry = self.method_specs.get(method_key)
        if config_entry is None or method_entry is None:
            config_kwargs, cluster_kwargs, method_value, method_overrides = _route(
                {**self.base, **overrides}
            )
            if config_entry is None:
                config = ExperimentConfig.from_dict({**config_kwargs, "cluster": cluster_kwargs})
                config_entry = self.configs[config_key] = (
                    config, canonical_json(config.to_dict())
                )
            if method_entry is None:
                method = _build_method(method_value, method_overrides, self.methods)
                method_entry = self.method_specs[method_key] = (
                    method, canonical_json(method.to_dict())
                )
        cell = CampaignCell(config=config_entry[0], method=method_entry[0])
        # Seed the cached property with the identity spliced from the two
        # serialised specs (what cell_identity would compute again).
        cell.__dict__["identity"] = splice_identity(config_entry[1], method_entry[1])
        return cell


@dataclass
class CampaignSpec:
    """A declarative sweep: base settings plus composable axes.

    Attributes
    ----------
    name:
        Campaign identifier (used for default store paths and reports).
    base:
        Axis defaults shared by every cell (same axis names as the axes).
    axes:
        Grid axes: the cartesian product over the listed values.
    zipped:
        Equal-length lists advanced together, crossed with the grid — the
        idiom for per-model settings such as target accuracies.
    cells:
        Explicit extra cells (override dicts merged over ``base``).
    methods:
        Named method definitions the ``method`` axis may reference, extending
        the paper's built-in five.
    """

    name: str = "campaign"
    base: Dict = field(default_factory=dict)
    axes: Dict[str, List] = field(default_factory=dict)
    zipped: Dict[str, List] = field(default_factory=dict)
    cells: List[Dict] = field(default_factory=list)
    methods: Dict[str, MethodSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {name: len(values) for name, values in self.zipped.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"zipped axes must have equal lengths, got {lengths}")
        for name, values in self.axes.items():
            if name in self.zipped:
                raise ValueError(f"axis {name!r} appears in both 'axes' and 'zipped'")
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> List[CampaignCell]:
        """All cells of the campaign, deduplicated, in declaration order.

        Grid points iterate with the last axis fastest (like nested loops in
        declaration order); each zip bundle entry is crossed with the full
        grid.  Duplicate cells — identical config and method after expansion —
        keep their first occurrence.  Each distinct config and method is built
        and serialised once per call (see :class:`_SpecMemo`); the cells equal
        :func:`build_cell`'s, identity bytes included.
        """
        grid_names = list(self.axes)
        grid_points = (
            itertools.product(*(self.axes[name] for name in grid_names)) if grid_names else [()]
        )
        zip_names = list(self.zipped)
        if zip_names:
            zip_bundles = list(zip(*(self.zipped[name] for name in zip_names)))
        else:
            zip_bundles = [()]

        memo = _SpecMemo(self.base, self.methods)
        cells: Dict[str, CampaignCell] = {}
        for grid_values in grid_points:
            for zip_values in zip_bundles:
                overrides = dict(zip(grid_names, grid_values))
                overrides.update(zip(zip_names, zip_values))
                cell = memo.cell(overrides)
                cells.setdefault(cell.identity, cell)
        for overrides in self.cells:
            cell = memo.cell(overrides)
            cells.setdefault(cell.identity, cell)
        return list(cells.values())

    def __len__(self) -> int:
        return len(self.expand())

    # ------------------------------------------------------------------ #
    # Deserialization
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        known = {"name", "base", "axes", "zip", "zipped", "cells", "methods", "store"}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown campaign spec keys {sorted(unknown)}; known: {sorted(known)}")
        if "zip" in data and "zipped" in data:
            raise KeyError("give either 'zip' or 'zipped', not both")
        methods = {
            name: spec if isinstance(spec, MethodSpec) else MethodSpec.from_dict(spec)
            for name, spec in data.get("methods", {}).items()
        }
        return cls(
            name=data.get("name", "campaign"),
            base=dict(data.get("base", {})),
            axes={name: list(values) for name, values in data.get("axes", {}).items()},
            zipped={
                name: list(values)
                for name, values in data.get("zip", data.get("zipped", {})).items()
            },
            cells=[dict(cell) for cell in data.get("cells", [])],
            methods=methods,
        )


def load_spec_file(path: Union[str, os.PathLike]) -> tuple:
    """Read a spec file into ``(raw dict, store path or None)``."""
    path = os.fspath(path)
    if path.endswith(".toml"):
        try:
            import tomllib  # noqa: PLC0415
        except ImportError as error:  # Python < 3.11
            raise RuntimeError(
                f"cannot read {path!r}: TOML campaign specs need Python 3.11+ "
                "(tomllib); re-save the spec as JSON for older interpreters"
            ) from error
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    if not isinstance(data, dict):
        raise TypeError(f"campaign spec {path!r} must contain a table/object at top level")
    return data, data.get("store")
