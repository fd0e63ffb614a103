"""The benchmark's traced run wraps library attributes by name; a rename
in the library would only show there, as a KeyError at run time."""

from conftest import ROOT


def test_every_tracer_probe_names_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    missing = [
        (name, owner.__name__, attr)
        for name, owner, attr, _phases, _measure in tracer.PROBES
        if attr not in vars(owner)
    ]
    assert missing == []
