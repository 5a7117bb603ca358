"""The offline phase's output is pinned, cell by cell.

Every (evaluation workload, method) cell is built cold and digested
(``tests/offline_identity.py``): instruction text by address, data
bytes and section ranges, rewrite-map entries, and the classifier's
value-set and LR-validity facts. The fixture was generated before the
solver, transfer and parser fast paths went in, so a faster offline
phase has to produce exactly what the slower one did.
"""

from __future__ import annotations

import pytest

from offline_identity import CELLS, cell_digests, cell_key, load_fixture

FIXTURE = load_fixture()


def test_fixture_covers_every_cell():
    assert sorted(FIXTURE) == sorted(cell_key(n, m) for n, m in CELLS)
    assert len(FIXTURE) == 60


@pytest.mark.parametrize("name,method", CELLS,
                         ids=[cell_key(n, m) for n, m in CELLS])
def test_cell_is_identical(name, method):
    assert cell_digests(name, method) == FIXTURE[cell_key(name, method)]
