"""The package's public names."""
import wlsynth


def test_every_export_resolves():
    """Each name in `wlsynth.__all__` is an attribute of the package, so a
    removed export cannot linger as a string."""
    missing = [name for name in wlsynth.__all__ if not hasattr(wlsynth, name)]
    assert not missing
