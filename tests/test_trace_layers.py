"""The layers that fcbench's --trace wraps must name functions that exist.

fcbench/spans.py wraps each listed function at run time, so a name pruned
from the library would break a traced benchmark run, not this suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "fcbench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("fcbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_name_exists():
    missing = []
    for layer, (module_name, names) in load_layers().items():
        module = importlib.import_module(module_name)
        # a layer without a list wraps the functions of the module's __all__
        for name in names or module.__all__:
            owner, _, attr = name.rpartition(".")  # "Subgroup.basis" is a member
            if attr not in vars(getattr(module, owner) if owner else module):
                missing.append(f"{layer}: {module_name}.{name}")
    assert not missing, missing
