"""Pins OpenBLAS to one thread before anything imports numpy.

OpenBLAS splits long matrix products across threads, and the split changes
the last bits.  At one thread the suite computes the bits of the README
recipe's runs and of perfbench, and its CPU-time readings count work, not
threads that spin while they wait.  Tests that compare thread counts run
them in subprocesses with their own setting.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
