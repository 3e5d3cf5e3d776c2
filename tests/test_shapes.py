"""Streaming and sliding-window shape checks on the structures themselves.

``tests/test_paper_claims.py`` asserts the Table-1 shapes through the
experiment drivers; these miniatures drive the streaming structures
directly (thresholds, measured storage, ladder length).
"""

import numpy as np

from repro.streaming import (
    CeccarelloStreamingCoreset,
    InsertionOnlyCoreset,
    SlidingWindowCoreset,
    cpp_size_threshold,
    paper_size_threshold,
)
from repro.workloads import drifting_stream


class TestStreamingShapes:
    def test_threshold_shapes(self):
        """Rows 6-7: ours additive in z, CPP multiplicative."""
        k, d = 3, 1
        for eps in (1.0, 0.5):
            ours_gap = paper_size_threshold(k, 256, eps, d) - paper_size_threshold(
                k, 0, eps, d
            )
            cpp_gap = cpp_size_threshold(k, 256, eps, d) - cpp_size_threshold(
                k, 0, eps, d
            )
            assert ours_gap == 256  # exactly additive
            assert cpp_gap == 256 * int(np.ceil(16 / eps))  # multiplied

    def test_measured_storage_near_lower_bound(self, rng):
        """Row 6 vs row 8: measured storage within a small constant of the
        Omega(k/eps^d + z) value."""
        k, z, eps, d = 2, 16, 1.0, 1
        stream = drifting_stream(1500, k, z, d, rng=rng)
        st = InsertionOnlyCoreset(k, z, eps, d)
        st.extend(stream)
        lb = k / eps**d + z
        assert st.size <= 6 * lb

    def test_cpp_stores_more_at_large_z(self, rng):
        k, z, eps, d = 2, 48, 0.5, 1
        stream = drifting_stream(1500, k, z, d, rng=rng)
        ours = InsertionOnlyCoreset(k, z, eps, d)
        cpp = CeccarelloStreamingCoreset(k, z, eps, d)
        ours.extend(stream)
        cpp.extend(stream)
        assert cpp.size > ours.size


class TestSlidingWindowShapes:
    def test_storage_scales_with_ladder(self, rng):
        stream = drifting_stream(300, 2, 6, d=1, rng=rng)
        short = SlidingWindowCoreset(2, 2, 0.5, 1, 100, r_min=1.0, r_max=8.0)
        long = SlidingWindowCoreset(2, 2, 0.5, 1, 100, r_min=0.01, r_max=800.0)
        short.extend(stream)
        long.extend(stream)
        assert long.num_guesses > short.num_guesses
        assert long.stored_items >= short.stored_items
