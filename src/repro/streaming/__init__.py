"""Streaming algorithms: insertion-only (§4.3), fully dynamic (§5.1),
sliding window (DBMZ substrate for §6), and prior-work baselines."""

from .baseline_ceccarello import CeccarelloStreamingCoreset, cpp_size_threshold
from .dynamic import DynamicCoreset, DynamicKCenter
from .dynamic_deterministic import DeterministicDynamicCoreset
from .insertion_only import InsertionOnlyCoreset, paper_size_threshold
from .mccutchen_khuller import McCutchenKhuller, MKInstance
from .sliding_window import (
    SlidingWindowCoreset,
    default_cell_capacity,
)
from .stream import (
    UpdateEvent,
    dynamic_stream,
    insertion_stream,
    live_set,
    replay,
    replay_chunks,
)

__all__ = [
    "CeccarelloStreamingCoreset",
    "DeterministicDynamicCoreset",
    "DynamicCoreset",
    "DynamicKCenter",
    "InsertionOnlyCoreset",
    "MKInstance",
    "McCutchenKhuller",
    "SlidingWindowCoreset",
    "UpdateEvent",
    "cpp_size_threshold",
    "default_cell_capacity",
    "dynamic_stream",
    "insertion_stream",
    "live_set",
    "paper_size_threshold",
    "replay",
    "replay_chunks",
]
