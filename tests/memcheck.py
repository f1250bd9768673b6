"""Peak traced memory of one call, for the memory-bound tests."""

import tracemalloc


def traced_peak(fn):
    """``fn()``'s result and the most memory, in bytes, that tracemalloc
    saw allocated during the call above what it held when the call began.
    numpy reports its array buffers to tracemalloc too."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak
