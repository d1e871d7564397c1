"""Child `python -m ncat` processes import ncat from this checkout's src/,
as the tests do through the `pythonpath` setting in pyproject.toml."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
