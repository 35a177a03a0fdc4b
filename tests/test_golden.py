"""The kNN statistics, p-values and generator states still equal the digests
recorded in ``tests/golden/neighbor.json`` (rewritten by
``tests/golden/neighbor.py``)."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).parent / "golden" / "neighbor.py"
_spec = importlib.util.spec_from_file_location("golden_neighbor", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_neighbor_statistics_equal_the_golden_digests():
    recorded = json.loads(golden.PATH.read_text())
    # Generator streams and BLAS rounding may change between numpy versions
    assert recorded["numpy"] == np.__version__, (
        f"{golden.PATH.name} was written with numpy {recorded['numpy']}, this is numpy {np.__version__}; "
        "run the tests with the recorded version"
    )
    digests = golden.digests()
    assert digests.keys() == recorded["digests"].keys()
    differ = [name for name, value in digests.items() if value != recorded["digests"][name]]
    detections = golden.detections()
    assert detections.keys() == recorded["detections"].keys()
    differ += [name for name, value in detections.items() if value != recorded["detections"][name]]
    assert not differ, f"{len(differ)} golden entries differ: {differ}"
