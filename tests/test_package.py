import hilbchow


def test_every_exported_name_resolves():
    # a stale `__all__` entry otherwise fails only `from hilbchow import *`
    missing = [name for name in hilbchow.__all__ if not hasattr(hilbchow, name)]
    assert not missing
    assert len(set(hilbchow.__all__)) == len(hilbchow.__all__)
