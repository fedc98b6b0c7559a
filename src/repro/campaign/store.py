"""Persistent, content-addressed store of experiment results.

A :class:`ResultStore` is an append-only JSONL file: one record per executed
campaign cell, keyed by a SHA-256 fingerprint of the cell's full specification
(:meth:`ExperimentConfig.to_dict` + :meth:`MethodSpec.to_dict`) plus the
code-relevant versions (package version and record schema).  Re-running an
unchanged cell is a cache hit — the stored :class:`ExperimentResult` is
returned without training — while any change to the workload, cluster, method
or code version changes the fingerprint and forces a fresh run.

The store is also the query surface the ``python -m repro report`` CLI
aggregates from: records can be filtered by any axis (config, cluster, method
or result field), pivoted into tables, and normalised against a named
baseline method (the paper's relative-TTA presentation).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.simulation.spec import ExperimentConfig, ExperimentResult, MethodSpec

#: Bumped whenever the stored record layout (or the meaning of a stored field)
#: changes incompatibly; part of every fingerprint, so old records are simply
#: never hit again rather than misread.
#:
#: History: 2 — ``MethodSpec`` gained ``error_feedback`` (and the
#: signsgd/powersgd compressor families changed what a spec string can mean),
#: so records persisted by schema-1 stores are invalidated instead of being
#: silently served for the extended cell space.  3 — ``ClusterSpec`` gained
#: the ``faults`` axis (fault-injection scenarios), ``ExperimentResult``
#: gained fault/recovery accounting, and records gained the runner's
#: ``attempts`` count.
RESULT_SCHEMA_VERSION = 3


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def canonical_json(payload) -> str:
    """Deterministic JSON encoding used for fingerprints (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cell_fingerprint(config: ExperimentConfig, method: MethodSpec) -> str:
    """Content hash identifying one campaign cell: the store's key.

    Covers the complete cell specification plus the code-relevant versions:
    two cells collide exactly when they would run the identical experiment
    under the identical code.  It hashes the same bytes as
    :meth:`CampaignCell.fingerprint`, from the same spliced identity.
    """
    return identity_fingerprint(cell_identity(config, method))


def splice_identity(config_json: str, method_json: str) -> str:
    """The cell identity of a config and a method already in canonical JSON.

    Byte for byte ``canonical_json({"config": ..., "method": ...})``: the two
    keys sort in that order, and each value's encoding does not depend on
    where it sits.  Expansion serialises each distinct spec once and joins
    them here per cell.
    """
    return '{"config":' + config_json + ',"method":' + method_json + "}"


def cell_identity(config: ExperimentConfig, method: MethodSpec) -> str:
    """Canonical JSON of the complete cell specification, without versions.

    Equal exactly when two cells would run the identical experiment: what a
    campaign deduplicates on, and what :func:`identity_fingerprint` hashes.
    """
    return splice_identity(canonical_json(config.to_dict()), canonical_json(method.to_dict()))


def identity_fingerprint(identity: str) -> str:
    """SHA-256 of a cell's :func:`cell_identity` with the versions added.

    The version keys are spliced into the identity's JSON object: sorted,
    ``"repro_version"`` and ``"schema"`` follow ``"config"`` and
    ``"method"``, so the hashed bytes are ``canonical_json`` of all four keys
    (``tests/test_workload_sharing.py`` pins that definition).  The versions
    are read at call time, so a schema bump changes every key.
    """
    versions = _version_tail(__version__, RESULT_SCHEMA_VERSION)
    return hashlib.sha256((identity[:-1] + versions).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def _version_tail(version: str, schema: int) -> str:
    """The closing ``"repro_version"`` and ``"schema"`` members of a hashed identity."""
    return f',"repro_version":{json.dumps(version)},"schema":{schema:d}}}'


def _share_keys(mapping, templates: Dict[tuple, Dict]):
    """``mapping`` copied onto the key strings first seen for its key tuple.

    ``templates`` lives for one load and maps each key tuple to a dict of its
    first-seen keys; a copy of that dict updated with ``mapping`` keeps those
    key objects, in the same order, with ``mapping``'s values.  The records of
    one load so keep independent plain dicts whose key strings are shared,
    instead of every record holding its own copy of each key.  Anything but a
    dict passes through.
    """
    if type(mapping) is not dict:
        return mapping
    keys = tuple(mapping)
    template = templates.get(keys)
    if template is None:
        template = templates[keys] = dict.fromkeys(keys)
    shared = template.copy()
    shared.update(mapping)
    return shared


@dataclass
class StoredRecord:
    """One persisted cell: its fingerprint, specification and result."""

    key: str
    config: Dict
    method: Dict
    result: ExperimentResult
    created: float = 0.0
    #: Executions the campaign runner started before this result landed
    #: (1 = clean first run; >1 = the cell was retried; 0 = unknown/legacy).
    attempts: int = 1
    #: The names :meth:`axis` resolves against the result (a class attribute, not a field).
    _RESULT_FIELDS = frozenset(field.name for field in dataclasses.fields(ExperimentResult))

    def axis(self, name: str):
        """Look up an axis value by name across result, config, cluster and method.

        Resolution order mirrors how campaign axes are declared: result fields
        first (``method``, ``model``, ``bandwidth_mbps``, ``tta`` ... — fields
        only, never a method such as ``tta_or_total`` or ``to_dict``), then
        experiment-config fields (``seed``, ``epochs`` ...), then cluster
        fields (``world_size``, ``overlap``, ``hierarchical`` ...), then method
        fields (``compressor``, ``pruning_ratio`` ...).
        """
        if name == "attempts":
            return self.attempts
        if name in self._RESULT_FIELDS:
            return getattr(self.result, name)
        if name in self.config:
            return self.config[name]
        cluster = self.config.get("cluster", {})
        if name in cluster:
            return cluster[name]
        if name in self.method:
            return self.method[name]
        raise KeyError(f"unknown axis {name!r} for stored record {self.key[:12]}")

    def value(self, name: str) -> Optional[float]:
        """A numeric result metric by name, or ``None`` when unset.

        ``tta_or_total`` resolves through the method of the same name; ``tta``
        is ``None`` for runs that never reached their target (aggregations
        skip those records rather than failing).  A name that is not a result
        field is looked up in ``result.extra`` (``compact_fraction`` ...), and
        is unset for a record whose method does not report it.
        """
        if name == "tta_or_total":
            return self.result.tta_or_total()
        try:
            value = getattr(self.result, name)
        except AttributeError:
            value = self.result.extra.get(name)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"result field {name!r} is not numeric (it is a {type(value).__name__})")
        return float(value)

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "schema": RESULT_SCHEMA_VERSION,
                "created": self.created,
                "attempts": self.attempts,
                "config": self.config,
                "method": self.method,
                "result": self.result.to_dict(),
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "StoredRecord":
        data = json.loads(line)
        return cls(
            key=data["key"],
            config=data["config"],
            method=data["method"],
            result=ExperimentResult.from_dict(data["result"]),
            created=float(data.get("created", 0.0)),
            attempts=int(data.get("attempts", 1)),
        )


class ResultStore:
    """JSONL-backed result cache and query API.

    ``path=None`` keeps the store purely in memory (useful for tests and
    one-off sweeps).  On disk the store is append-only — re-executed cells
    append a fresh record and the latest record per key wins on load — so a
    crashed run never corrupts earlier results and the file doubles as a full
    run history.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._records: Dict[str, StoredRecord] = {}
        #: Byte length of the valid prefix when the file ends in a torn line
        #: (a write interrupted mid-record); ``None`` when the file is whole.
        self._valid_bytes: Optional[int] = None
        #: The file ends in a record without its newline (the next append adds it).
        self._missing_newline = False
        #: Lines ``<path>.corrupt`` already holds; read on the first bad line.
        self._quarantined: Optional[set] = None
        self._load()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        """Read the store one line at a time, each line parsed on its own.

        A line is the bytes up to and including ``b"\\n"``.  A complete line
        that does not decode or parse is quarantined; a final chunk with no
        newline that does not is a torn write, dropped and truncated away by
        the next append.  The config, cluster and method dicts of one load
        share their key strings (see :func:`_share_keys`).
        """
        if self.path is None or not os.path.exists(self.path):
            return
        templates: Dict[tuple, Dict] = {}
        raw = b""
        with open(self.path, "rb") as handle:
            for line_number, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    record = StoredRecord.from_json(line)
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as error:
                    if not raw.endswith(b"\n"):
                        # Torn final line from a killed writer: the records
                        # before it are intact, so drop it (that cell simply
                        # re-runs) and let the next append truncate it away.
                        self._valid_bytes = handle.tell() - len(raw)
                        return
                    # Corrupt interior (or complete-but-bad final) line — e.g.
                    # a crashed writer raced another appender, or the file was
                    # hand-edited.  Losing one record must not take the whole
                    # sweep history with it: quarantine the bad line to
                    # ``<store>.corrupt`` for forensics, warn, and keep loading.
                    line = raw.decode("utf-8", errors="backslashreplace").strip()
                    self._quarantine(line, line_number, error)
                    continue
                config = record.config = _share_keys(record.config, templates)
                if type(config) is dict and "cluster" in config:
                    config["cluster"] = _share_keys(config["cluster"], templates)
                record.method = _share_keys(record.method, templates)
                self._records[record.key] = record
        # A last record whose newline never reached the disk: the next append
        # writes it first, or the two records would fuse into one bad line.
        self._missing_newline = bool(raw) and not raw.endswith(b"\n")

    def _quarantine(self, line: str, line_number: int, error: Exception) -> None:
        """Preserve one unreadable store line in ``<path>.corrupt`` and warn.

        The bad line stays in the append-only store, so every later open meets
        it again: it is appended only if the quarantine file does not hold it.
        """
        quarantine_path = f"{self.path}.corrupt"
        try:
            if self._quarantined is None:
                self._quarantined = set()
                if os.path.exists(quarantine_path):
                    with open(quarantine_path, "r", encoding="utf-8") as handle:
                        self._quarantined.update(handle.read().splitlines())
            if line not in self._quarantined:
                with open(quarantine_path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                self._quarantined.add(line)
        except OSError:
            quarantine_path = "<unwritable>"
        warnings.warn(
            f"result store {self.path!r}: skipping corrupt record at line "
            f"{line_number} ({error}); bad line quarantined to {quarantine_path!r}",
            RuntimeWarning,
            stacklevel=2,
        )

    def _append(self, record: StoredRecord) -> None:
        if self.path is None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if self._valid_bytes is not None:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_bytes)
            self._valid_bytes = None
        with open(self.path, "a", encoding="utf-8") as handle:
            if self._missing_newline:
                handle.write("\n")
                self._missing_newline = False
            handle.write(record.to_json() + "\n")

    # ------------------------------------------------------------------ #
    # Cache interface
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def get(self, config: ExperimentConfig, method: MethodSpec) -> Optional[ExperimentResult]:
        """The cached result for this exact cell, or ``None`` on a miss."""
        record = self._records.get(cell_fingerprint(config, method))
        return record.result if record is not None else None

    def get_by_key(self, key: str) -> Optional[ExperimentResult]:
        record = self._records.get(key)
        return record.result if record is not None else None

    def put(
        self,
        config: ExperimentConfig,
        method: MethodSpec,
        result: ExperimentResult,
        attempts: int = 1,
        key: Optional[str] = None,
    ) -> str:
        """Persist one result; returns the cell fingerprint it is stored under.

        ``attempts`` records how many executions the campaign runner started
        before this result landed (>1 means the cell was retried).  ``key`` is
        that fingerprint when the caller already holds it (the runner computed
        it for its cache lookup); it is computed here otherwise.
        """
        if key is None:
            key = cell_fingerprint(config, method)
        record = StoredRecord(
            key=key,
            config=config.to_dict(),
            method=method.to_dict(),
            result=result,
            created=time.time(),
            attempts=attempts,
        )
        self._records[key] = record
        self._append(record)
        return key

    # ------------------------------------------------------------------ #
    # Query / aggregation
    # ------------------------------------------------------------------ #
    def records(self, **filters) -> List[StoredRecord]:
        """All records whose axes match every ``name=value`` filter.

        Axis names resolve through :meth:`StoredRecord.axis`; records that do
        not define a filtered axis are excluded rather than erroring, so mixed
        campaigns can share one store.
        """
        matched = []
        for record in self._records.values():
            for name, wanted in filters.items():
                try:
                    value = record.axis(name)
                except KeyError:
                    break
                if value != wanted:
                    break
            else:
                matched.append(record)
        return matched

    def pivot(
        self,
        rows: str,
        cols: str,
        value: str = "simulated_time",
        **filters,
    ) -> Tuple[List[str], List[List[str]]]:
        """Pivot the store into a ``rows x cols`` table of one result metric.

        Multiple records per (row, col) bucket — e.g. several seeds — are
        mean-reduced.  Returns ``(header, table_rows)`` ready for a plain-text
        table printer, each value to three decimals; empty buckets render as
        ``"-"``.
        """
        # One pass: row and column values in first-seen order (a record that
        # lacks one axis still names the other), buckets from records with both.
        row_values: Dict = {}
        col_values: Dict = {}
        buckets: Dict[Tuple, List[float]] = {}
        for record in self.records(**filters):
            bucket = []
            for axis, seen in ((rows, row_values), (cols, col_values)):
                try:
                    label = record.axis(axis)
                except KeyError:
                    continue
                seen.setdefault(label, None)
                bucket.append(label)
            if len(bucket) < 2:
                continue
            metric = record.value(value)
            if metric is not None:
                buckets.setdefault(tuple(bucket), []).append(metric)
        header = [rows] + [str(col) for col in col_values]
        table = []
        for row in row_values:
            cells = [str(row)]
            for col in col_values:
                values = buckets.get((row, col))
                cells.append(f"{_mean(values):.3f}" if values else "-")
            table.append(cells)
        return header, table

    def relative_to_baseline(
        self,
        baseline: str,
        value: str = "tta_or_total",
        group_by: Sequence[str] = ("model", "bandwidth_mbps"),
        **filters,
    ) -> Dict[Tuple, Dict[str, float]]:
        """Per-group metric ratios against a named baseline method.

        The paper's relative-TTA presentation: within each group (by default
        one per model x bandwidth), every method's metric is divided by the
        baseline method's metric.  Several records per (group, method) — e.g.
        a seed axis — are mean-reduced first, consistently with
        :meth:`pivot`.  Groups without a baseline record are skipped.
        Returns ``{group_key: {method_name: ratio}}``.
        """
        groups: Dict[Tuple, Dict[str, List[float]]] = {}
        for record in self.records(**filters):
            try:
                group = tuple(record.axis(axis) for axis in group_by)
            except KeyError:
                continue
            metric = record.value(value)
            if metric is not None:
                groups.setdefault(group, {}).setdefault(record.result.method, []).append(metric)
        relative: Dict[Tuple, Dict[str, float]] = {}
        for group, by_method in groups.items():
            means = {name: _mean(metrics) for name, metrics in by_method.items()}
            base = means.get(baseline)
            if base is None or base == 0.0:
                continue
            relative[group] = {name: metric / base for name, metric in means.items()}
        return relative
