"""How a result store file is read back: one line at a time, keys shared.

* Two fixes of the line-at-a-time loader: a non-UTF-8 line is quarantined
  like any corrupt line (it used to make the whole store unreadable), and a
  final record whose newline never reached the disk is not fused with the
  next append.
* A differential property test against the whole-file loader the store used
  before (kept here as ``_WholeFileStore``, the oracle).
* A memory guard (the load holds one line at a time, not the file three
  times) and a sharing guard (records of one load share their key strings).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import ResultStore
from repro.campaign.store import StoredRecord
from repro.simulation import PAPER_METHODS
from tests.test_campaign import fake_result, tiny_config


class _WholeFileStore(ResultStore):
    """The oracle: the store's former ``_load``, which read the whole file.

    It decodes the file at once and splits it with ``str.splitlines``, so it
    raises on any non-UTF-8 byte and also splits on separators the writer
    never emits (a lone ``\\r``, ``\\x0b``, ``\\x0c``, ``\\x1c``–``\\x1e``,
    ``\\x85``, ``\\u2028``, ``\\u2029``).  The streaming loader splits on
    ``b"\\n"`` only; that difference is deliberate, so the property below
    generates neither.
    """

    def _load(self) -> None:
        if self.path is None or not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        raw = data.decode("utf-8")
        lines = raw.splitlines()
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = StoredRecord.from_json(line)
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                if line_number == len(lines) and not raw.endswith("\n"):
                    self._valid_bytes = len(data) - len(lines[-1].encode("utf-8"))
                    return
                self._quarantine(line, line_number, error)
                continue
            self._records[record.key] = record


def _record_line(key: str, seed: int, tta: float) -> str:
    method = PAPER_METHODS["pactrain" if seed % 2 else "fp16"]
    result = fake_result(method=method.name, tta=tta)
    result.accuracy_trace = [(0.1 * step, 0.01 * step) for step in range(20)]
    record = StoredRecord(
        key=key, config=tiny_config(seed=seed).to_dict(), method=method.to_dict(),
        result=result, created=1.5 + seed, attempts=1 + seed % 3,
    )
    return record.to_json()


#: Three keys, two records each: a file that repeats a key must load the
#: latest of its records, in first-seen key order.
RECORD_LINES = [
    _record_line(f"{index % 3:064x}", seed=index % 3, tta=float(index))
    for index in range(6)
]


def _load(store_class, data: bytes):
    """Load ``data`` as a store; what the store holds and what it reported."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "store.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = store_class(path)
        corrupt = None
        if os.path.exists(path + ".corrupt"):
            with open(path + ".corrupt", "rb") as handle:
                corrupt = handle.read()
    # ``to_json`` keeps every dict's key order: the records must match in
    # order, in content and in the order of their config and method keys.
    records = [record.to_json() for record in store.records()]
    lines = [int(re.search(r"at line (\d+)", str(w.message)).group(1)) for w in caught]
    return list(store._records), records, store._valid_bytes, corrupt, lines


ascii_garbage = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t"),
    min_size=1, max_size=40,
).filter(lambda text: text.strip())
store_lines = st.one_of(
    st.sampled_from(RECORD_LINES),
    st.sampled_from(["", " ", "\t", "  \t "]),
    ascii_garbage,
    # A record cut short but complete as a line: corrupt, not torn.
    st.builds(lambda line, cut: line[:cut], st.sampled_from(RECORD_LINES),
              st.integers(1, 200)),
)
torn_tails = st.one_of(
    st.builds(lambda line, cut: line[: cut % (len(line) - 1) + 1],
              st.sampled_from(RECORD_LINES), st.integers(0, 10_000)),
    ascii_garbage,
    st.sampled_from([" ", "\t"]),
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(store_lines, st.sampled_from(["\n", "\r\n"])), max_size=12),
    tail=st.none() | torn_tails,
)
def test_streaming_load_matches_the_whole_file_loader(lines, tail):
    text = "".join(line + ending for line, ending in lines) + (tail or "")
    data = text.encode("utf-8")
    assert _load(ResultStore, data) == _load(_WholeFileStore, data)


class TestFixedCases:
    def test_a_non_utf8_line_is_quarantined(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        ResultStore(path).put(config, method, fake_result())
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
        with pytest.warns(RuntimeWarning, match="line 2"):
            store = ResultStore(path)
        assert store.get(config, method) == fake_result()
        corrupt = (tmp_path / "store.jsonl.corrupt").read_text(encoding="utf-8")
        assert corrupt == "\\xff\\xfe garbage\n"
        # The quarantine is written once, however often the store is reopened.
        with pytest.warns(RuntimeWarning, match="line 2"):
            ResultStore(path)
        assert (tmp_path / "store.jsonl.corrupt").read_text(encoding="utf-8") == corrupt

    def test_a_non_utf8_final_line_without_newline_is_torn(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        ResultStore(path).put(config, method, fake_result())
        whole = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"key": "\xe2\x82')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = ResultStore(path)
        assert reopened.get(config, method) == fake_result()
        assert reopened._valid_bytes == whole
        assert not (tmp_path / "store.jsonl.corrupt").exists()
        reopened.put(tiny_config(seed=1), method, fake_result(tta=2.0))
        assert len(ResultStore(path)) == 2

    def test_a_missing_final_newline_is_restored_before_the_next_append(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config, method = tiny_config(), PAPER_METHODS["all-reduce"]
        ResultStore(path).put(config, method, fake_result())
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = ResultStore(path)
        assert len(reopened) == 1
        reopened.put(tiny_config(seed=1), method, fake_result(tta=2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = ResultStore(path)
        assert final.get(config, method) == fake_result()
        assert final.get(tiny_config(seed=1), method).tta == 2.0
        assert path.read_bytes().count(b"\n") == 2


def _write_store(path, records: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for seed in range(records):
            handle.write(_record_line(f"{seed:064x}", seed=seed, tta=float(seed)) + "\n")


def test_the_load_holds_one_line_at_a_time(tmp_path):
    """The load's peak exceeds what it keeps by under a tenth of the file.

    The whole-file loader held the bytes, the decoded text and the split lines
    at once: an excess of about three file sizes.
    """
    path = tmp_path / "store.jsonl"
    _write_store(path, records=300)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        store = ResultStore(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == 300
    assert peak - held < size / 10, (peak - held, size)


def test_records_of_one_load_share_their_key_strings(tmp_path):
    path = tmp_path / "store.jsonl"
    _write_store(path, records=3)
    first, second = ResultStore(path).records()[:2]
    pairs = [
        (first.config, second.config),
        (first.config["cluster"], second.config["cluster"]),
        (first.method, second.method),
    ]
    for one, other in pairs:
        assert one is not other and type(one) is dict and list(one) == list(other)
        assert all(a is b for a, b in zip(one, other))
    # Only the key objects are shared: each record's dicts stay its own.
    first.config["seed"] = -1
    assert second.config["seed"] == 1
