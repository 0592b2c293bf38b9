"""Fixture: the adjoint is one sparse product; no ``ufunc.at`` anywhere."""

import numpy as np


def aggregate_backward(block, grad_agg):
    return block.operator(grad_agg.dtype).T @ grad_agg


def update_self_rows(grads, block, grad_dst):
    grads[block.dst_pos] += grad_dst
    return np.maximum(grads, 0.0)


def schedule(table, when):
    return table.at(when)
