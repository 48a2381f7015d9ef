"""The benchmark's tracer (perfbench/spans.py) wraps virlog's layer entry
points, looked up by name, while it is active.  A change that drops or
renames one of them breaks every traced benchmark run; these tests catch
that in the suite.  They read perfbench/ and change nothing there.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_all_it_touched():
    spans = _load_spans()
    targets = spans._targets()  # imports every virlog module it wraps
    wlog = sys.modules["virlog.wlog"]
    homes = [m for k, m in sys.modules.items() if k.split(".")[0] == "virlog"]
    homes += [owner for _, owner, _ in targets if isinstance(owner, type)]
    before = [(home, dict(vars(home))) for home in homes]
    before.append((wlog._COCYCLES, dict(wlog._COCYCLES)))
    # an AttributeError here names a wrapped attribute that src no longer has
    originals = {name: getattr(owner, attr) for name, owner, attr in targets}

    with spans.Tracer():
        for name, owner, attr in targets:
            assert getattr(owner, attr).__wrapped__ is originals[name], name

    for home, entries in before:
        now = home if isinstance(home, dict) else vars(home)
        assert now.keys() == entries.keys()
        changed = [key for key, value in entries.items() if now[key] is not value]
        assert not changed, (home, changed)
