"""Streaming algorithms: insertion-only (§4.3), fully dynamic (§5.1),
sliding window (DBMZ substrate for §6), and prior-work baselines.

Each name imports its defining module on first access (see
``repro._lazy``): the insertion-only structure loads without the
dynamic sketches, and the other way round.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baseline_ceccarello": ("CeccarelloStreamingCoreset",
                            "cpp_size_threshold"),
    "dynamic": ("DynamicCoreset", "DynamicKCenter"),
    "dynamic_deterministic": ("DeterministicDynamicCoreset",),
    "insertion_only": ("InsertionOnlyCoreset", "paper_size_threshold"),
    "mccutchen_khuller": ("MKInstance", "McCutchenKhuller"),
    "sliding_window": ("SlidingWindowCoreset", "default_cell_capacity"),
    "stream": ("UpdateEvent", "dynamic_stream", "insertion_stream",
               "live_set", "replay", "replay_chunks"),
})
