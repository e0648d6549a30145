"""The R/S kernel counts constant segments without dividing by them."""
import numpy as np

from hurstlab import _kernels


def test_rs_sums_degenerate_segments_counted():
    x = np.concatenate([np.full(8, 2.0), np.arange(8.0)])
    total, defined, segments = _kernels.rs_segment_sums(x, 8, 0)
    assert segments == 2
    assert defined == 1
    assert total > 0.0
