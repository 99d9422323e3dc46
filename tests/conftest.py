import time
import tracemalloc

SESSION_START = time.monotonic()


def session_elapsed() -> float:
    return time.monotonic() - SESSION_START


def traced_peak(call, *args, **kwargs):
    """(result, peak): `call(*args, **kwargs)` once to warm its caches,
    then once more under tracemalloc, whose peak is the bytes the second
    call allocated above what was live when it began."""
    call(*args, **kwargs)
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
