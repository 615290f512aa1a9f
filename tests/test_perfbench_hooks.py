"""The benchmark's tracer patches kvertex functions by module attribute;
a refactor that renames or drops one of them must fail here."""

import os

from kvertex import wallcross

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_traced_attributes_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [
        (attr, module.__name__)
        for attr, modules, *_ in tracing.TRACED
        for module in modules
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_traced_word_sums_nest_in_wallcross_checks(monkeypatch):
    # the wall-crossing checks look restricted_word_sum up at call time,
    # so the tracer's wrapper sees their word sums
    tracer = _tracing(monkeypatch).Tracer(0)
    tracer.install()
    try:
        assert wallcross.joyce_check(2, 4)
        assert wallcross.mochizuki_check(2, 4)
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield spans[i][0]

    for check in ("wallcross.joyce_check", "wallcross.mochizuki_check"):
        assert any(
            span[0] == "qcombi.restricted_word_sum" and check in ancestors(i)
            for i, span in enumerate(spans)
        ), check
