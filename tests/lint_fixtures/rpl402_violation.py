"""Fixture: a ``ufunc.at`` scatter re-enters the numerics (RPL402).

The test lints this file under a ``src/repro/gnn/layers.py`` display
path, inside the scope the SpMM pass cleared of per-row scatter loops.
"""

import numpy
import numpy as np


def aggregate_backward(block, grad_agg):
    grad_h = np.zeros((block.num_src, grad_agg.shape[1]))
    np.add.at(grad_h, block.edge_src, grad_agg[block.edge_dst])  # <- RPL402
    return grad_h


def segment_max(segments, scores, num_segments):
    out = numpy.full(num_segments, -numpy.inf)
    numpy.maximum.at(out, segments, scores)  # <- RPL402
    return out
