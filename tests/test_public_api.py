"""The package's public names: each export resolves, once, in order."""

from __future__ import annotations

import minfeat


def test_every_exported_name_resolves():
    missing = [name for name in minfeat.__all__ if not hasattr(minfeat, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(minfeat.__all__)) == len(minfeat.__all__)
    assert minfeat.__all__ == sorted(minfeat.__all__)
