"""Test-session settings. No bytecode caches: a tree that pytest has cached
starts faster and smaller than a fresh checkout, so a run must leave none
under src/, here or in the interpreters the tests start."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
