"""The benchmark tracer (``perfbench/spans.py``) finds every qcap name it patches."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_finds_every_patched_name():
    # installed() looks up each PATCHES entry by getattr, so a patched name
    # deleted from qcap fails here and not only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, attr) for modules, attr, _, _ in spans.PATCHES for mod in modules]
    before = [getattr(mod, attr) for mod, attr in names]
    with spans.installed(spans.Tracer()):
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(names, before))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(names, before))
