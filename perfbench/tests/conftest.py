import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
# the benchmark's modules import each other by bare name, as run.py does
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
