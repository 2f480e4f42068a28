"""Package surface tests."""

import relaysim


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from relaysim import *`; fail here instead.
    assert [name for name in relaysim.__all__ if not hasattr(relaysim, name)] == []
    assert len(set(relaysim.__all__)) == len(relaysim.__all__)
