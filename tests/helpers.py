"""Helpers shared by several test modules.  The tests directory is on the
import path under pytest, and CI puts it there for the scripts that import
a test module."""

from collections import deque


def _balanced_joins(lo, hi, out):
    """Path edges ordered so every insertion joins two halves of equal size."""
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _balanced_joins(lo, mid, out)
        _balanced_joins(mid, hi, out)
        out.append((mid - 1, mid))
    return out


def _dist(tree, a, b):
    """The number of edges on the path from a to b."""
    seen = {a: 0}
    q = deque([a])
    while q:
        v = q.popleft()
        if v == b:
            return seen[v]
        for u in tree.neighbours(v):
            if u not in seen:
                seen[u] = seen[v] + 1
                q.append(u)
    raise AssertionError("disconnected")


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # the exception type and text are the outcome
        return "raise", type(exc), str(exc)
