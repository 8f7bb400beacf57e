import sys
from pathlib import Path

# The benchmark's modules are plain scripts beside this directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
