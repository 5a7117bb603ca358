"""The record table: one tag, one class and one size rule per record.

Every record crosses the wire as the same 9 bytes, so a record class
must pack, decode (report spans and SPD1 dictionaries alike) and size
the same way wherever it is read. A record logged by a device and the
same record read back off the wire must be equal, or a dictionary the
Vrf mined from decoded traffic never matches what the device logs.
"""

import pytest

from repro.baselines.traces import TracesEngine
from repro.cfa.cflog import (
    PACKED_RECORD,
    RECORD_TYPES,
    LoopRecord,
    SpecRecord,
    span_claim,
    tag_sizes,
)
from repro.cfa.speccfa import (
    compress,
    expand,
    pack_dictionary,
    unpack_dictionary,
)
from repro.cfa.wire import decode_records
from repro.eval.runner import prepare
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu

METHODS = ("naive-mtb", "rap-track", "traces")
CLASSES = sorted(RECORD_TYPES.values(), key=lambda cls: cls.tag)


def test_the_paper_sizes():
    """An MTB packet is 8 bytes, a TRACES word and a token 4; a loop
    condition is a word on TRACES and a packet beside the MTB's."""
    assert tag_sizes("rap-track") == {1: 8, 2: 4, 3: 8, 4: 4}
    assert tag_sizes("naive-mtb") == tag_sizes("rap-track")
    assert tag_sizes("traces") == {1: 8, 2: 4, 3: 4, 4: 4}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_record_packs_decodes_and_sizes_alike(cls, method):
    record = cls(0x2000_0010, 0xFFFF_FFFF)
    packed = record.pack()
    assert PACKED_RECORD.unpack(packed) == (cls.tag, 0x2000_0010,
                                            0xFFFF_FFFF)
    assert RECORD_TYPES[packed[0]] is cls
    assert decode_records(packed * 3) == [record] * 3
    assert span_claim(packed * 3, method) == (
        3, 3 * tag_sizes(method)[cls.tag])
    if cls is SpecRecord:
        with pytest.raises(ValueError):
            pack_dictionary({0: (record,)})
        return
    dictionary = {0: (record, record)}
    pushed = unpack_dictionary(pack_dictionary(dictionary))
    assert pushed == dictionary
    assert compress([record] * 5, pushed) == [SpecRecord(0, 2), record]


def test_a_token_is_not_a_sub_path_record():
    payload = pack_dictionary({0: (LoopRecord(1, 2),)})
    token = SpecRecord(7, 9).pack()
    with pytest.raises(ValueError, match="unknown sub-path record tag 4"):
        unpack_dictionary(payload[:-PACKED_RECORD.size] + token)


def test_traces_dictionary_round_trip_compresses_ultrasonic():
    """Sub-paths holding TRACES loop records survive the SPD1 round
    trip and still match what the TRACES engine logs."""
    workload = load_workload("ultrasonic")
    image, bound = prepare(workload, "traces")
    result = TracesEngine(make_mcu(image, workload), KeyStore.provision(),
                          bound).attest(b"record-table")
    records = result.cflog.records
    assert decode_records(result.span) == records
    loops = [i for i, r in enumerate(records) if isinstance(r, LoopRecord)]
    assert loops
    dictionary = {path_id: tuple(records[i:i + 3])
                  for path_id, i in enumerate(loops)}
    pushed = unpack_dictionary(pack_dictionary(dictionary))
    assert pushed == dictionary
    compressed = compress(records, pushed)
    assert compressed == compress(records, dictionary)
    assert sum(isinstance(r, SpecRecord) for r in compressed) == len(loops)
    assert expand(compressed, pushed) == records
