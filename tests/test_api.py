"""The public API: every exported name exists. The demos, which import
from the package, run in ``tests/test_docs.py``."""

import xtalksim


def test_all_names_resolve():
    assert [name for name in xtalksim.__all__
            if not hasattr(xtalksim, name)] == []
