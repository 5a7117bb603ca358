"""Mutated input against every decoder: typed errors, no overruns.

Hypothesis damages each format's canonical sample (``byte_samples``,
the report included) by a random mix of the four damages of
``test_codec.py``: all-ones length prefixes or counts, bit flips, a
cut and an extension. Every read must either succeed or raise its
boundary's typed error, and must never slice past its input. A Python
slice past the end of a ``bytes`` silently returns fewer bytes, so a
decoder that sliced before checking a length would read a short field
without noticing; the input is therefore a ``bytes`` subclass that logs
every slice whose bounds lie outside it, and the slices of slices too.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_samples import samples

SAMPLES = samples()
NAMES = sorted(SAMPLES)


class Bounded(bytes):
    """Bytes that log every slice reaching outside themselves."""

    overruns: List[str]

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not isinstance(key, slice):
            return value
        size = len(self)
        for bound in (key.start, key.stop):
            if bound is not None and not -size <= bound <= size:
                self.overruns.append(f"[{key.start}:{key.stop}] of {size}")
        part = Bounded(value)
        part.overruns = self.overruns
        return part


def read(name: str, blob: bytes) -> List[str]:
    """Decode ``blob`` as format ``name``; the slices that overran."""
    sample = SAMPLES[name]
    data = Bounded(blob)
    data.overruns = []
    try:
        sample.decode(data)
    except sample.error as exc:
        assert not isinstance(exc, UnicodeDecodeError), exc
    return data.overruns


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(NAMES))
    sample = SAMPLES[name]
    blob = bytearray(sample.blob)
    prefixes = ([(pos, 4) for pos in sample.u32s]
                + [(pos, 2) for pos in sample.u16s])
    for _ in range(draw(st.integers(0, 2))):
        pos, width = draw(st.sampled_from(prefixes))
        blob[pos:pos + width] = b"\xff" * width
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= \
            1 << draw(st.integers(0, 7))
    cut = draw(st.integers(0, len(blob)))
    return name, bytes(blob[:cut]) + draw(st.binary(max_size=16))


@given(mutants())
@settings(deadline=None, max_examples=800)
def test_mutants_fail_closed_within_their_input(case):
    assert read(*case) == []


@pytest.mark.parametrize("name", NAMES)
def test_samples_and_their_cuts_read_within_their_input(name):
    blob = SAMPLES[name].blob
    for cut in range(len(blob) + 1):
        assert read(name, blob[:cut]) == [], cut


@pytest.mark.parametrize("name", NAMES)
def test_all_ones_prefixes_read_within_their_input(name):
    sample = SAMPLES[name]
    for pos, width in ([(pos, 4) for pos in sample.u32s]
                       + [(pos, 2) for pos in sample.u16s]):
        blob = bytearray(sample.blob)
        blob[pos:pos + width] = b"\xff" * width
        assert read(name, bytes(blob)) == [], pos
