import numpy as np
import pytest

from watlab.accum import BLOCK, StreamingSum, csum


def streamed(pieces):
    acc = StreamingSum()
    for piece in pieces:
        acc.add(piece)
    return acc.value


def assert_same(a, b):
    assert type(a) is type(b)
    assert a == b


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize(
    "chunk", [1, 7, BLOCK // 4, BLOCK - 1, BLOCK, BLOCK + 3, 3 * BLOCK, 5000]
)
def test_streaming_sum_matches_csum(is_complex, chunk):
    rng = np.random.default_rng(chunk)
    for size in (0, 5, BLOCK, 3 * BLOCK + 17, 20000):
        # spread the magnitudes so the block partials round differently
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        if is_complex:
            x = x + 1j * rng.standard_normal(size)
        pieces = [x[i : i + chunk] for i in range(0, size, chunk)] or [x]
        assert_same(streamed(pieces), csum(x))


def test_streaming_sum_uneven_pieces_and_2d():
    rng = np.random.default_rng(1)
    grid = rng.standard_normal((37, 211)) + 1j * rng.standard_normal((37, 211))
    # row blocks of a 2-D grid, fed as they are, in row-major order
    pieces = [grid[i : i + rows] for i, rows in zip((0, 3, 4, 20), (3, 1, 16, 17))]
    assert_same(streamed(pieces), csum(grid.ravel()))


def test_streaming_sum_empty():
    assert_same(StreamingSum().value, csum(np.empty(0)))
    assert_same(streamed([np.empty(0)]), 0.0)
    assert_same(streamed([np.empty(0, dtype=complex)]), csum(np.empty(0, dtype=complex)))
    x = np.arange(10.0)
    assert_same(streamed([np.empty(0), x, np.empty(0)]), csum(x))
