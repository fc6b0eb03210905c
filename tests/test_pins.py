"""Byte-identity pins: CLI outputs and kernel results against tests/data/pins.json."""

import pytest

import pins


@pytest.mark.parametrize("name", list(pins.GROUPS))
def test_output_matches_its_pin(name):
    # A change that moves one of these on purpose regenerates the file with
    # `python tests/pins.py --write` and lists the moved pins.
    assert pins.GROUPS[name]() == pins.load()[name]
