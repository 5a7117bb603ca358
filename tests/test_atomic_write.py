"""Every atomic publisher leaves no temporary file when it fails.

The four writers — the epoch registries, the recovery manifest, the
bounds certificate store and the artifact cache — share
:func:`repro.atomic.atomic_write`: a failed write or rename removes
its temporary file and re-raises, so only whole files ever sit in a
store directory.
"""

from __future__ import annotations

import os

import pytest

from repro import atomic
from repro.cfa.fleet import DeviceProfile
from repro.cfa.policy import PolicyRegistry, policy_key
from repro.cfa.policy.recovery import write_recovery_manifest
from repro.core.analysis import BoundsCertificate, bounds_key, \
    store_certificate
from repro.eval.cache import atomic_pickle

PROFILE = DeviceProfile("fibcall", "rap-track")
CERT = BoundsCertificate(
    workload="demo", method="rap-track", image_digest=bytes(range(32)),
    max_stack_depth=3, max_log_records=100, max_log_bytes=800,
    recursion_cycles=(), depth_exact=False, call_keys=(),
    return_keys=())


def publish_policy(root):
    PolicyRegistry(policy_key(b"seed"), root).publish(PROFILE, b"\x11" * 32)


WRITERS = {
    "policy-registry": publish_policy,
    "recovery-manifest": write_recovery_manifest,
    "certificate": lambda root: store_certificate(
        str(root), CERT, bounds_key(b"seed")),
    "artifact-cache": lambda root: atomic_pickle(root / "entry.pkl",
                                                 {"value": 1}),
}


def failing_replace(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                name):
    root = tmp_path / "store"
    root.mkdir()
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[name](root)
    assert sorted(os.listdir(root)) == []


def test_failed_write_leaves_no_temporary_file(tmp_path):
    with pytest.raises(TypeError):
        atomic.atomic_write(tmp_path / "x", object())
    assert os.listdir(tmp_path) == []
    atomic.atomic_write(tmp_path / "x", b"ok")
    assert os.listdir(tmp_path) == ["x"]
    assert (tmp_path / "x").read_bytes() == b"ok"
