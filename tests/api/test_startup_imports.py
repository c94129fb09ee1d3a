"""Process start pays only for what the configured session runs.

Checked in a fresh interpreter, by module presence (never wall time):
importing the front door, building a szlike+huffman session and running
a step loads no ``scipy`` submodule beyond what a bare ``import scipy``
does; the jpeg codec and the KS-test metrics import theirs on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))

SCRIPT = r"""
import json, sys
import scipy

def scipy_modules():
    return {m for m in sys.modules if m.startswith("scipy.")}

report = {}
bare = scipy_modules()
import numpy as np
from repro.api import SessionConfig, build_session
report["after_import"] = sorted(scipy_modules() - bare)

from repro.models import build_scaled_model
from repro.nn import SyntheticImageDataset, batches

config = SessionConfig.from_dict(
    {"codec": {"name": "szlike", "options": {"entropy": "huffman"}}}
)
net = build_scaled_model("alexnet", num_classes=8, image_size=16, rng=42)
data = SyntheticImageDataset(num_classes=8, image_size=16, signal=0.4, seed=7)
with build_session(net, config) as session:
    images, labels = next(iter(batches(data, 4, 1, seed=1)))
    report["loss"] = float(session.train_step(images, labels).loss)
report["after_step"] = sorted(scipy_modules() - bare)

from repro.compression import available_codecs, get_codec, uniformity_pvalue
report["codecs"] = list(available_codecs())
x = np.sin(np.arange(2 * 3 * 16 * 16).reshape(2, 3, 16, 16) / 40).astype(np.float32)
y = get_codec("jpeg").roundtrip(x)
report["jpeg_ok"] = bool(y.shape == x.shape and y.dtype == x.dtype and np.abs(y - x).max() < 0.1)
report["fft_after_jpeg"] = "scipy.fft" in sys.modules
report["stats_after_jpeg"] = "scipy.stats" in sys.modules
report["pvalue"] = uniformity_pvalue(np.linspace(-1e-3, 1e-3, 500), 1e-3)
report["stats_after_pvalue"] = "scipy.stats" in sys.modules
print(json.dumps(report))
"""


def test_szlike_session_loads_no_scipy_submodule_until_one_is_used():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_step"] == [], report["after_step"][:10]
    assert report["loss"] > 0
    assert report["codecs"] == ["jpeg", "lossless", "sparse-lossless", "szlike"]
    assert report["jpeg_ok"] and report["fft_after_jpeg"]
    assert not report["stats_after_jpeg"]
    assert 0.0 < report["pvalue"] <= 1.0
    assert report["stats_after_pvalue"]
