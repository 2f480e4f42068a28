"""Helpers shared by the test modules."""

import numpy as np

from relaysim.selection import OnlineSet


def online_set(peers):
    """The OnlineSet holding exactly the given peers."""
    online = OnlineSet()
    for p in peers:
        online.add(p)
    return online


def assignment_matrix(sel):
    """0/1 matrix p with p[r, q] = 1 iff relay r serves requester q in the
    SelectionMatrix sel."""
    p = np.zeros((len(sel.relay_caps), len(sel.assignment)), dtype=np.int8)
    for q, r in enumerate(sel.assignment):
        if r >= 0:
            p[r, q] = 1
    return p
