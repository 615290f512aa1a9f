"""The package surface: a removed export must not leave a dangling name."""

import kvertex


def test_exported_names_resolve():
    assert len(set(kvertex.__all__)) == len(kvertex.__all__)
    missing = [name for name in kvertex.__all__ if not hasattr(kvertex, name)]
    assert not missing
