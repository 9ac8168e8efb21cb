"""Guard the import cost of the package's records.

Every short request pays for importing the package, and ``dataclasses``
generates and compiles methods for each class it processes, about 0.5 ms a
class.  A ``typing.NamedTuple`` record costs a tenth of that, so a record
whose constructor takes its fields as given is a NamedTuple, and a class
stays a dataclass only for what the decorator gives it.  The set of classes
processed while ``lefbench.cli`` imports is counted in a fresh process: a
count that repeats exactly, not a timing.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each class that stays a dataclass, and what it needs of the decorator
KEPT = {
    "AbstractFiber": "__post_init__ checks the dimension and the classes",
    "ArcCrossing": "field(compare=False) keeps the ranks out of ==",
    "BoundaryAngle": "__post_init__ reduces the angle and sets hpoint",
    "DiscModel": "__post_init__ checks the punctures; cached_property",
    "FiberOracle": "__post_init__ closes and checks the facts",
    "Fibration": "cached_property: the handle model and path findings",
    "HomologyTable": "__post_init__ checks and sorts the groups",
    "PlanarArc": "cached_property and validation records in __dict__",
    "WrappedComplexStage": "__post_init__ checks the rank certificate",
}

PROBE = """
import dataclasses
processed = []
process = dataclasses._process_class
def counting(cls, *args, **kwargs):
    if cls.__module__.startswith("lefbench"):
        processed.append(cls.__qualname__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counting
import lefbench.cli
print(*sorted(processed))
"""


def test_import_processes_only_the_kept_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(KEPT)
