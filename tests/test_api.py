"""Package surface: every exported name resolves and is listed once."""

import duallink


def test_all_names_resolve_once():
    missing = [name for name in duallink.__all__ if not hasattr(duallink, name)]
    assert missing == []
    assert len(set(duallink.__all__)) == len(duallink.__all__)
