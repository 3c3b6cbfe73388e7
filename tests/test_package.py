"""The package's export list."""

from collections import Counter

import ringcent


def test_every_export_is_defined_once_and_star_imports():
    missing = [name for name in ringcent.__all__ if not hasattr(ringcent, name)]
    assert missing == []
    repeated = [name for name, k in Counter(ringcent.__all__).items() if k > 1]
    assert repeated == []
    namespace = {}
    exec("from ringcent import *", namespace)
    assert set(ringcent.__all__) <= set(namespace)
