"""The benchmark's span tracer (`perfbench/tracer.py`) wraps churnskip
functions from outside, by name. A traced name that is renamed or removed
would break `perfbench/run.py --trace 1`; this catches it in the suite."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = [(span, attr) for span, owner, attr in tracer.SPANS
               if attr not in vars(owner)]
    assert not missing
