"""Golden bytes: every byte format, pinned to the encoder that defined it.

The byte formats are the contract between devices, shards, stores and
auditors; the Python around them may be rewritten freely as long as
these pins hold.

* ``GOLDEN`` is the sha256 of one canonical encoding per format, built
  by ``byte_samples`` from fixed inputs and keys.
* ``tests/data/epochs/`` is a committed registry store: a dictionary
  registry and a policy registry, two epochs each. Every reload must
  yield the same ``(epoch, digest, payload, mac)``. Regenerate (only if
  the fixture must ever change) with::

      gps = DeviceProfile("gps", "rap-track")
      loop = {0: (BranchRecord(0x200, 0x210), BranchRecord(0x214, 0x200))}
      dicts = DictionaryRegistry(root / "dicts")
      dicts.publish(gps, loop)
      dicts.publish(gps, {**loop, 1: (LoopRecord(0x220, 4),)})
      policy = PolicyRegistry(policy_key(b"fleet-vrf"), root / "policy")
      policy.publish(gps, sha256(b"fixture-pinned"),
                     allowed=(sha256(b"fixture-other"),))
      policy.revoke(gps, sha256(b"fixture-other"))

* ``tests/data/evidence-v1.log`` (see ``test_evidence_compat.py``)
  must still audit.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from byte_samples import samples
from repro.cfa.fleet import DeviceProfile, audit_key, verify_evidence_trail
from repro.cfa.fleet.dictver import DictionaryRegistry
from repro.cfa.policy.registry import PolicyRegistry, policy_key

DATA = Path(__file__).parent / "data"
GPS = DeviceProfile("gps", "rap-track")

GOLDEN = {
    "report": "0a16a03e9d484e28932a60011b337bfdd3701b910d43310c6faeb914261b16d9",
    "RSHD": "c4a56b65e1a4bdd69fca945994140552dc4ddd595f850126a5e4658a87735acb",
    "DICT": "cc163f6851d57e85931ccec78062a5660694a47966f33bffab1e2949e7a8094e",
    "DACK": "eda69d6b6c4bbac89103e72e3c9863aece5933fdb852a3510747e047258ae7a5",
    "PLCY": "dcd31206f5cbb09e755e3ccbf9c1f76f6d7857c129d81ea1e9207151229598df",
    "HEAL": "06943d2f8192e717bc1c370e59f264beb5fb9961a992463031c15b7935583c18",
    "SPD1": "7f17994b98d472eafe29d5c8facb4030c6deade443ba8a6b232d743976ab30ad",
    "FWP1": "5fdf06110179f8a1b036794cb606237da31f2a17e7e08514272f07df9152553f",
    "BNDS1": "8d30196d8e38c440d5df0cffca544e2b3a805ef54874806fc3f2ceed5d2a48aa",
    "evidence-session": "badbb9461089f31a2ed7b8499dec7fcec3799ccf457168f358587878ef1746ab",
    "evidence-policy": "1281493fb36acadc03a46222d2d1cbb9de61a03925cb34026e1f0f66d3c5a207",
}

#: the committed dictionary epochs: (epoch, sha256 of the payload)
DICT_EPOCHS = [
    (1, "91b1dde173738d655d2cff64b358081dbb8a554908611132f3bd65494be74c16"),
    (2, "aaba4bb6c6e52d5e4e57635475b190bcc105f43b021fb519e457aac0c97a6ec7"),
]

#: the committed policy epochs: (epoch, sha256 of the payload, its MAC)
POLICY_EPOCHS = [
    (1, "8eb59faa3936a3c8acff7db11e6bef79906b675fcafb06d9a2d5464bb51c53ad",
     "119f45007a8f47f1f3ad2809c03adff42ab2850b0f871081bf2769b5f214eea8"),
    (2, "43df98d7f96816504bc54aeb5d674589eaad4e58d2b67f935039b538646eb891",
     "975ecc576f598ce7cf7e452b567a86ed003125443fb87cfae51073820077d1c8"),
]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoding_matches_its_golden_digest(name):
    assert hashlib.sha256(samples()[name].blob).hexdigest() == GOLDEN[name]


def test_every_sample_is_pinned():
    assert set(samples()) == set(GOLDEN)


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "epochs"
    shutil.copytree(DATA / "epochs", root)
    return root


def test_committed_dictionary_store_reloads_identically(store):
    registry = DictionaryRegistry(store / "dicts")
    entries = registry.epochs_of(GPS)
    assert [(e.epoch, e.digest.hex()) for e in entries] == DICT_EPOCHS
    for entry in entries:
        path = store / "dicts" / f"gps__rap-track__{entry.epoch:06d}.dict"
        assert entry.payload == path.read_bytes()
        assert hashlib.sha256(entry.payload).digest() == entry.digest
        assert registry.find(entry.digest) is entry


def test_committed_policy_store_reloads_identically(store):
    registry = PolicyRegistry(policy_key(b"fleet-vrf"), store / "policy")
    assert registry.latest_epoch(GPS) == 2
    docs = [registry.get(GPS, epoch) for epoch in (1, 2)]
    assert [(d.epoch, d.digest.hex(), d.mac.hex())
            for d in docs] == POLICY_EPOCHS
    for doc in docs:
        path = store / "policy" / f"gps__rap-track__{doc.epoch:06d}.pol"
        assert doc.payload + doc.mac == path.read_bytes()
        assert hashlib.sha256(doc.payload).digest() == doc.digest
    assert docs[1].revoked == (hashlib.sha256(b"fixture-other").digest(),)


def test_committed_v1_evidence_still_audits():
    records = verify_evidence_trail(DATA / "evidence-v1.log",
                                    audit_key(b"fleet-vrf"))
    assert len(records) == 6
