"""Decoder battery: every decoder of untrusted bytes fails closed.

Each format's canonical sample (``byte_samples``) is damaged four ways:
cut to every proper prefix, extended by one trailing byte, given a
non-UTF-8 byte in each string field, and given an all-ones length
prefix or count. Every damaged input must raise the decoder's typed
error (``WireError``, ``EvidenceError``, ``PolicyError``, or
``ValueError`` for SPD1/BNDS1) -- never ``IndexError``,
``struct.error`` or ``UnicodeDecodeError``.

It also pins the shared reader in :mod:`repro.codec` and the strict
reload of the epoch registries.
"""

from __future__ import annotations

import shutil
import struct
from pathlib import Path

import pytest

from byte_samples import samples
from repro.cfa.fleet import DeviceProfile
from repro.cfa.fleet.dictver import DictionaryRegistry
from repro.cfa.policy.registry import PolicyError, PolicyRegistry, policy_key
from repro.codec import Reader, lp, lp16

SAMPLES = samples()
NAMES = sorted(SAMPLES)
EPOCHS = Path(__file__).parent / "data" / "epochs"
GPS = DeviceProfile("gps", "rap-track")


def fails_closed(name: str, blob: bytes) -> None:
    sample = SAMPLES[name]
    with pytest.raises(sample.error) as info:
        sample.decode(blob)
    assert not isinstance(info.value, UnicodeDecodeError), info.value


@pytest.mark.parametrize("name", NAMES)
def test_sample_decodes(name):
    sample = SAMPLES[name]
    sample.decode(sample.blob)


@pytest.mark.parametrize("name", NAMES)
def test_every_proper_prefix_fails_closed(name):
    blob = SAMPLES[name].blob
    for cut in range(len(blob)):
        fails_closed(name, blob[:cut])


@pytest.mark.parametrize("name", NAMES)
def test_one_trailing_byte_fails_closed(name):
    fails_closed(name, SAMPLES[name].blob + b"\x00")


@pytest.mark.parametrize("name", [n for n in NAMES if SAMPLES[n].strings])
def test_non_utf8_string_fields_fail_closed(name):
    sample = SAMPLES[name]
    for pos in sample.strings:
        blob = bytearray(sample.blob)
        blob[pos] = 0xFF
        fails_closed(name, bytes(blob))


@pytest.mark.parametrize("name", NAMES)
def test_all_ones_length_prefixes_fail_closed(name):
    sample = SAMPLES[name]
    for pos, ones in ([(p, b"\xff" * 4) for p in sample.u32s]
                      + [(p, b"\xff" * 2) for p in sample.u16s]):
        blob = bytearray(sample.blob)
        blob[pos:pos + len(ones)] = ones
        fails_closed(name, bytes(blob))


class TestReader:
    def test_fields_round_trip(self):
        data = (b"HDR\x02" + b"\x07" + struct.pack("<HIQ", 3, 4, 5)
                + lp(b"abc") + lp16("é".encode()))
        reader = Reader(data, KeyError, "sample")
        reader.header(b"HDR", "sample", version=2)
        assert (reader.u8(), reader.u16(), reader.u32(), reader.u64()) == \
            (7, 3, 4, 5)
        assert reader.lp() == b"abc"
        assert reader.utf8(reader.lp16(), "bad") == "é"
        reader.end("trailing")

    def test_errors_carry_the_callers_class_and_message(self):
        class Boom(Exception):
            pass

        with pytest.raises(Boom, match="^truncated sample$"):
            Reader(b"\x01", Boom, "sample").u32()
        with pytest.raises(Boom, match="^bad sample magic$"):
            Reader(b"XXXX\x01", Boom, "sample").header(b"HDR1", "sample")
        with pytest.raises(Boom, match="^unsupported sample version 9$"):
            Reader(b"HDR1\x09", Boom, "x").header(b"HDR1", "sample",
                                                  version=1)
        with pytest.raises(Boom, match="^bad magic$"):
            Reader(b"XXXX", Boom, "x").header(b"HDR1", "")
        with pytest.raises(Boom, match="^name field: "):
            Reader(lp(b"\xff"), Boom, "x").lp_str("name field")
        with pytest.raises(Boom, match="^trailing$"):
            Reader(b"\x00", Boom, "x").end("trailing")

    def test_huge_length_prefix_allocates_nothing(self):
        reader = Reader(b"\xff\xff\xff\xff" + b"x" * 8, ValueError, "lp")
        with pytest.raises(ValueError, match="truncated lp"):
            reader.lp()

    def test_lp16_refuses_oversized_fields(self):
        assert lp16(b"x" * 0xFFFF)[:2] == b"\xff\xff"
        with pytest.raises(ValueError, match="u16 length prefix"):
            lp16(b"x" * 0x10000)


class TestRegistryReloadFailsClosed:
    def test_policy_file_under_another_profiles_name(self, tmp_path):
        store = tmp_path / "policy"
        store.mkdir()
        renamed = "fibcall__rap-track__000001.pol"
        shutil.copy(EPOCHS / "policy" / "gps__rap-track__000001.pol",
                    store / renamed)
        with pytest.raises(PolicyError, match=renamed):
            PolicyRegistry(policy_key(b"fleet-vrf"), store)

    def test_policy_file_under_another_epochs_name(self, tmp_path):
        store = tmp_path / "policy"
        shutil.copytree(EPOCHS / "policy", store)
        (store / "gps__rap-track__000002.pol").unlink()
        shutil.copy(EPOCHS / "policy" / "gps__rap-track__000002.pol",
                    store / "gps__rap-track__000001.pol")
        with pytest.raises(PolicyError, match="gps__rap-track__000001.pol"):
            PolicyRegistry(policy_key(b"fleet-vrf"), store)

    @pytest.mark.parametrize("bad_name", [
        "garbage.dict", "gps__000001.dict", "gps__rap-track__first.dict"])
    def test_unparseable_dictionary_file_name(self, tmp_path, bad_name):
        store = tmp_path / "dicts"
        shutil.copytree(EPOCHS / "dicts", store)
        shutil.copy(store / "gps__rap-track__000001.dict", store / bad_name)
        with pytest.raises(ValueError, match=bad_name):
            DictionaryRegistry(store)

    def test_policy_epoch_zero_is_built_once(self):
        registry = PolicyRegistry(policy_key(b"fleet-vrf"))
        assert registry.get(GPS, 0) is registry.get(GPS, 0)
        assert registry.latest(GPS) is registry.get(GPS, 0)
