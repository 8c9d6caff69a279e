"""Runtime component: kernel loading, chunking, multi-threading, degradation."""

from .bufferpool import Arena, BufferPool
from .executable import CPUExecutable, Executable, KernelSignature
from .ladder import RetryPolicy
from .threadpool import (
    MIN_PROFITABLE_CHUNK,
    ChunkedExecutor,
    ShardRecord,
    ShardTimeline,
    chunk_ranges,
    plan_chunks,
)

__all__ = [
    "Arena",
    "BufferPool",
    "CPUExecutable",
    "Executable",
    "KernelSignature",
    "ChunkedExecutor",
    "MIN_PROFITABLE_CHUNK",
    "RetryPolicy",
    "ShardRecord",
    "ShardTimeline",
    "chunk_ranges",
    "plan_chunks",
]
