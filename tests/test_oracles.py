import ast
from pathlib import Path

import numpy as np
import pytest

import addcomb
import addcomb.oracles
from addcomb.fourier import convolve
from addcomb.groups import FinAbGroup
from addcomb.oracles import difference_table, pairwise_difference_counts
from addcomb.sets import GroupSet, negate

PACKAGE = Path(addcomb.__file__).parent


def imports_oracles(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
    return False


def test_only_verify_imports_oracles():
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if imports_oracles(p))
    assert importers == ["verify.py"]


@pytest.mark.parametrize("cycles", [[17], [64], [6, 10], [4, 9], [3, 4, 5], [2, 2, 8]])
def test_difference_counts_match_convolution(cycles):
    g = FinAbGroup(cycles)
    rng = np.random.default_rng(sum(cycles))
    for p in (0.05, 0.3, 0.8):
        mask = rng.random(g.order) < p
        mask[int(rng.integers(0, g.order))] = True
        A = GroupSet(g, mask)
        counts = pairwise_difference_counts(A)
        assert counts.dtype == np.int64
        assert counts.sum() == A.cardinality ** 2
        assert np.array_equal(counts, np.rint(convolve(A, negate(A))).astype(np.int64))


def literal_difference_table(A: GroupSet) -> np.ndarray:
    """Reference: g.encode of each a - a', one pair at a time."""
    g = A.group
    idx = [int(i) for i in A.indices()]
    return np.array([[g.encode([x - y for x, y in zip(g.decode(a), g.decode(b))])
                      for b in idx] for a in idx], dtype=np.int64)


def test_difference_table_rows():
    g = FinAbGroup([5, 3])
    A = GroupSet.from_indices(g, [0, 4, 7, 13])
    table = difference_table(A)
    idx = A.indices()
    assert table.shape == (4, 4)
    for r, a in enumerate(idx):
        for c, b in enumerate(idx):
            assert table[r, c] == (g.element(int(a)) - g.element(int(b))).index


@pytest.mark.parametrize("seed", range(12))
def test_difference_table_matches_literal_pairs(seed):
    rng = np.random.default_rng(seed)
    rank = seed % 3 + 1
    g = FinAbGroup([int(n) for n in rng.integers(2, {1: 200, 2: 15, 3: 7}[rank], size=rank)])
    mask = rng.random(g.order) < rng.uniform(0.05, 0.7)
    sets = [GroupSet(g, mask), GroupSet.singleton(g, int(rng.integers(0, g.order))),
            GroupSet.full(g)]
    for A in sets:
        table = difference_table(A)
        assert table.dtype == np.int64
        assert np.array_equal(table, literal_difference_table(A))


@pytest.mark.parametrize("block_cells", [1, 7, 100])
def test_difference_table_blocks_agree(monkeypatch, block_cells):
    g = FinAbGroup([3, 4, 5])
    A = GroupSet(g, np.random.default_rng(3).random(g.order) < 0.4)
    whole = difference_table(A)
    monkeypatch.setattr(addcomb.oracles, "DIFFERENCE_BLOCK_CELLS", block_cells)
    assert np.array_equal(difference_table(A), whole)
    assert np.array_equal(whole, literal_difference_table(A))
