#!/usr/bin/env python3
"""Compile the models that the eval workloads load.

The eval workloads read stored models, so a change to the compiler does not
move them.  Regenerate only on purpose (the stored bytes are part of the
benchmark's inputs):

    python3 perfbench/make_models.py
"""
import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from gdn.cli import main  # noqa: E402

from cases import CHART_CASES, MODEL_DIR, MODEL_SEED  # noqa: E402

if __name__ == "__main__":
    os.makedirs(MODEL_DIR, exist_ok=True)
    for case in CHART_CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(case.compile_argv(MODEL_SEED, case.model_path))
        if rc != 0:
            raise SystemExit(f"compile of {case.name} exited {rc}")
        print(case.model_path)
