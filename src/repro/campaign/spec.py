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
fields (``bandwidth``, ``world_size``, ``overlap``, ``straggler``,
``hierarchical`` ...) into :class:`ClusterSpec`, ``method`` resolves through
the spec's method table, the paper's named methods, then the compressor
registry / codec spec grammar, and :class:`MethodSpec` field names
(``error_feedback``, ``pruning_ratio``, ``quantize`` ...) override the
resolved method per cell — so ``"error_feedback": [false, true]`` sweeps
every method with and without the driver's error-feedback residual state.

Specs round-trip through plain dicts (``from_dict`` / ``to_dict``) and load
from JSON or TOML files (``from_file``), which is what ``python -m repro
sweep`` drives.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.campaign.store import cell_identity, identity_fingerprint
from repro.simulation.cluster import ClusterSpec
from repro.simulation.spec import PAPER_METHODS, ExperimentConfig, MethodSpec

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


@dataclass(frozen=True)
class CampaignCell:
    """One concrete experiment of a campaign: a workload and a method.

    A cell is serialised once: :attr:`identity` is computed on first use and
    kept, and expansion's dedupe, the runner's cache lookup and the store
    write all derive from it.  Build a new cell instead of mutating the
    ``config`` of one whose identity has been read.
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


def build_cell(
    overrides: Dict,
    base: Optional[Dict] = None,
    methods: Optional[Dict[str, MethodSpec]] = None,
) -> CampaignCell:
    """Construct one cell from base settings plus per-cell axis overrides."""
    merged = {**(base or {}), **overrides}
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
        elif name in CONFIG_AXES:
            config_kwargs[name] = value
        elif name in CLUSTER_AXES:
            cluster_kwargs[name] = value
        elif name in METHOD_FIELD_AXES:
            method_overrides[name] = value
        else:
            raise KeyError(
                f"unknown campaign axis {name!r}; experiment axes: {sorted(CONFIG_AXES)}, "
                f"cluster axes: {sorted(CLUSTER_AXES)}, method-field axes: "
                f"{sorted(METHOD_FIELD_AXES)}, or 'method'"
            )
    config = ExperimentConfig(cluster=ClusterSpec.from_dict(cluster_kwargs), **config_kwargs)
    method = resolve_method(method_value, methods)
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
    return CampaignCell(config=config, method=method)


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
        keep their first occurrence.
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

        cells: List[CampaignCell] = []
        seen: Dict[str, None] = {}
        for grid_values in grid_points:
            for zip_values in zip_bundles:
                overrides = dict(zip(grid_names, grid_values))
                overrides.update(zip(zip_names, zip_values))
                self._add_cell(cells, seen, overrides)
        for overrides in self.cells:
            self._add_cell(cells, seen, overrides)
        return cells

    def _add_cell(self, cells: List[CampaignCell], seen: Dict[str, None], overrides: Dict) -> None:
        cell = build_cell(overrides, base=self.base, methods=self.methods)
        if cell.identity in seen:
            return
        seen[cell.identity] = None
        cells.append(cell)

    def __len__(self) -> int:
        return len(self.expand())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {name: list(values) for name, values in self.axes.items()},
            "zip": {name: list(values) for name, values in self.zipped.items()},
            "cells": [dict(cell) for cell in self.cells],
            "methods": {name: spec.to_dict() for name, spec in self.methods.items()},
        }

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

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "CampaignSpec":
        """Load a spec from a ``.json`` or ``.toml`` file.

        TOML needs Python 3.11+ (:mod:`tomllib` is in the standard library
        there); on older interpreters use JSON, which is always available.
        The optional top-level ``store`` key is kept accessible via
        :func:`load_spec_file` for the CLI; ``from_file`` ignores it.
        """
        data, _ = load_spec_file(path)
        return cls.from_dict({key: value for key, value in data.items() if key != "store"})


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
