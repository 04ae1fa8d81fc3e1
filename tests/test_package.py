"""The package's public surface: every exported name resolves."""

import gradtail


def test_every_exported_name_resolves():
    missing = [name for name in gradtail.__all__ if not hasattr(gradtail, name)]
    assert missing == []
    assert len(set(gradtail.__all__)) == len(gradtail.__all__)
