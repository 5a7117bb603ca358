"""Reopening a damaged evidence log never silently drops evidence.

A crash tears at most the one frame being written, so recovery may
truncate only that torn tail. A length prefix that points past the end
of the file over bytes that hold a complete, MAC-valid frame is damage,
not a tear: the reopen raises :class:`EvidenceError` and leaves the file
byte-identical. Otherwise a flipped bit in a length prefix would erase
every record after it, and a restarted Vrf would re-issue the nonces
those records had already answered.
"""

from __future__ import annotations

import gc
import struct
import tempfile
import warnings
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfa.fleet import ShardedFleetService, audit_key
from repro.cfa.fleet.service import FleetService
from repro.cfa.fleet.store import EvidenceError, EvidenceStore
from repro.cfa.fleet.verify import DeviceProfile, SessionVerdict
from repro.cfa.policy.engine import PolicyDecision

KEY = audit_key(b"fleet-vrf")
DEVICES = [f"prv-{i}" for i in range(4)]


def write_log(path: Path) -> None:
    """Four devices' interleaved chains, sessions and policy records."""
    with EvidenceStore(path, KEY, fsync=False) as store:
        for round_no in range(3):
            for index, device in enumerate(DEVICES):
                accepted = (round_no + index) % 3 != 0
                store.append(
                    SessionVerdict(
                        device_id=device,
                        profile=DeviceProfile("fibcall"),
                        accepted=accepted, authenticated=accepted,
                        lossless=accepted,
                        reason="" if accepted else "MAC mismatch",
                        reports=1, records=5 + round_no,
                        path_len=9, path_digest=f"{round_no:02x}" * 32,
                        records_digest=f"{index:02x}" * 32),
                    chain=bytes([round_no, index]) * 16,
                    challenge=b"nonce-%d-%d" % (round_no, index),
                    measurement=b"\x11" * 32)
                if not accepted:
                    store.append_decision(PolicyDecision(
                        device_id=device, workload="fibcall",
                        method="rap-track", from_state=0, to_state=1,
                        action="suspect", reason="MAC mismatch",
                        score=1, heal_attempt=0, policy_epoch=0,
                        measurement=b"\x11" * 32))


def frame_spans(data: bytes) -> List[Tuple[int, int]]:
    """``(offset, end)`` of every frame, length prefix included."""
    spans = []
    pos = 5
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        spans.append((pos, pos + 4 + length))
        pos += 4 + length
    return spans


def reopen(path: Path):
    with EvidenceStore(path, KEY, fsync=False) as store:
        return store.recovered


def flip(data: bytes, byte: int, mask: int) -> bytes:
    return data[:byte] + bytes([data[byte] ^ mask]) + data[byte + 1:]


@pytest.fixture
def log(tmp_path) -> Path:
    path = tmp_path / "evidence-00.log"
    write_log(path)
    return path


class TestDamagedFrameLength:
    @pytest.mark.parametrize("frame", [0, -1])
    def test_length_past_eof_over_a_complete_frame_is_tamper(self, log,
                                                              frame):
        # bit 24 of the length prefix: the frame now claims 16 MB
        data = log.read_bytes()
        offset, _ = frame_spans(data)[frame]
        damaged = flip(data, offset + 3, 0x01)
        log.write_bytes(damaged)
        with pytest.raises(EvidenceError, match="complete frame"):
            reopen(log)
        assert log.read_bytes() == damaged

    def test_resume_refuses_the_damaged_shard(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        path = store_dir / "evidence-00.log"
        write_log(path)
        data = path.read_bytes()
        damaged = flip(data, 5 + 3, 0x01)
        path.write_bytes(damaged)
        with pytest.raises(EvidenceError):
            ShardedFleetService(shards=1, store_dir=store_dir, fsync=False,
                                resume=True, policy=True)
        assert path.read_bytes() == damaged

    def test_a_torn_last_frame_is_still_truncated(self, log):
        data = log.read_bytes()
        offset, end = frame_spans(data)[-1]
        intact = reopen(log)
        for cut in (offset + 2, offset + 4, offset + 70, end - 1):
            log.write_bytes(data[:cut])
            assert reopen(log) == intact[:-1]
            assert log.read_bytes() == data[:offset]


class TestRestore:
    def test_latest_verdicts_in_first_seen_order(self, log):
        # the map a record-by-record fold builds: every session record
        # sets its device's verdict, so the last one wins and a device
        # keeps the position of its first record
        records = reopen(log)
        fold = {}
        rounds: dict = {}
        for record in records:
            if not record.is_policy:
                fold[record.device_id] = record.to_verdict()
                rounds[record.device_id] = rounds.get(
                    record.device_id, 0) + 1
        service = FleetService()
        assert service.restore(records) == sum(rounds.values())
        assert list(service.verdicts.items()) == list(fold.items())
        assert service.manager._device_rounds == rounds

    def test_a_resumed_open_releases_the_records(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        path = store_dir / "evidence-00.log"
        write_log(path)
        records = reopen(path)
        sessions = sum(not record.is_policy for record in records)
        service = ShardedFleetService(shards=1, store_dir=store_dir,
                                      fsync=False, resume=True)
        try:
            (store,) = service.stores
            assert service.recovered_verdicts == sessions
            assert store.recovered == []
            assert store.recovered_count == len(records)
        finally:
            service.close()
        with pytest.raises(ValueError,
                           match=f"already has {len(records)} record"):
            ShardedFleetService(shards=1, store_dir=store_dir, fsync=False)


class TestRefusedReopen:
    """``resume=False`` on a populated store is refused before any
    shard log is opened: every log stays byte-identical, a torn tail
    included, and no file is left open."""

    @pytest.fixture
    def store_dir(self, tmp_path) -> Path:
        # shard 0 holds only a header; shard 1 holds records and a
        # torn 8-byte tail
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        EvidenceStore(store_dir / "evidence-00.log", KEY,
                      fsync=False).close()
        populated = store_dir / "evidence-01.log"
        write_log(populated)
        with open(populated, "ab") as fh:
            fh.write(struct.pack("<I", 100) + b"torn")
        return store_dir

    @staticmethod
    def refuse(store_dir: Path) -> str:
        try:
            ShardedFleetService(shards=2, store_dir=store_dir, fsync=False)
        except ValueError as exc:
            return str(exc)
        raise AssertionError("a populated store was reopened")

    def test_a_refusal_leaves_every_log_byte_identical(self, store_dir):
        def snapshot():
            return {p.relative_to(store_dir):
                    p.read_bytes() if p.is_file() else None
                    for p in store_dir.rglob("*")}

        before = snapshot()
        assert "evidence-01.log already has" in self.refuse(store_dir)
        assert snapshot() == before

    def test_a_refusal_leaves_no_file_open(self, store_dir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            self.refuse(store_dir)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []



def test_a_failed_resume_leaves_no_file_open(tmp_path):
    """A ``resume=True`` reopen that meets a damaged later shard log
    raises, and closes the logs the shards before it had opened."""
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    for shard in range(2):
        write_log(store_dir / f"evidence-{shard:02d}.log")
    damaged = store_dir / "evidence-01.log"
    damaged.write_bytes(flip(damaged.read_bytes(), 5, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(EvidenceError):
            ShardedFleetService(shards=2, store_dir=store_dir, fsync=False,
                                resume=True)
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


# -- property: a reopen recovers the intact prefix or refuses -----------------


@pytest.fixture(scope="module")
def original(tmp_path_factory) -> Tuple[bytes, list]:
    path = tmp_path_factory.mktemp("log") / "evidence-00.log"
    write_log(path)
    return path.read_bytes(), reopen(path)


@st.composite
def damage(draw, data: bytes) -> Tuple[str, bytes]:
    how = draw(st.sampled_from(["flip", "cut", "extend"]))
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return how, flip(data, at, 1 << draw(st.integers(0, 7)))
    if how == "cut":
        return how, data[:draw(st.integers(0, len(data) - 1))]
    return how, data + draw(st.binary(min_size=1, max_size=200))


def test_reopen_keeps_every_complete_frame_or_refuses(original):
    data, records = original
    spans = frame_spans(data)

    def content_intact(damaged: bytes, index: int) -> bool:
        """Frame ``index``'s bytes after its length prefix are intact."""
        offset, end = spans[index]
        return damaged[offset + 4:end] == data[offset + 4:end]

    @settings(max_examples=300, deadline=None, database=None)
    @given(damage(data))
    def check(case: Tuple[str, bytes]) -> None:
        how, damaged = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "evidence-00.log"
            path.write_bytes(damaged)
            try:
                recovered = reopen(path)
            except EvidenceError:
                assert how != "cut", "a cut is a torn tail, never tamper"
                assert path.read_bytes() == damaged
                return
            kept = len(recovered)
            assert recovered == records[:kept]
            # the file keeps exactly the recovered frames
            assert path.read_bytes() == data[:spans[kept - 1][1]
                                             if kept else 5]
            # no complete, MAC-valid frame was dropped
            assert not any(content_intact(damaged, index)
                           for index in range(kept, len(spans)))
            if how == "cut":
                assert kept == sum(end <= len(damaged) for _, end in spans)

    check()
