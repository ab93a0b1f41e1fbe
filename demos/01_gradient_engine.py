"""Tour of the tape-based gradient engine.

Builds a tiny network by hand, runs a backward pass from a scalar loss and
a vector-Jacobian product from the network's output, and then lets the
finite-difference checker loose on every operation in the catalogue.
"""

import numpy as np

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import Tape, Tensor, grad_check
from infogan_lab.gradsuite import op_grad_checks

print("=== a two-layer network, by hand ===")
rng = np.random.default_rng(0)
x = Tensor(rng.normal(0, 1, (4, 3)))
target = Tensor(rng.normal(0, 1, (4, 1)))
w1 = Tensor(rng.normal(0, 0.5, (3, 5)))
b1 = Tensor(np.zeros(5))
w2 = Tensor(rng.normal(0, 0.5, (5, 1)))
b2 = Tensor(np.zeros(1))
zero_log_sigma = Tensor(np.zeros((4, 1)))


def network(params):
    w1_, b1_, w2_, b2_ = params
    return ad.linear(ad.lrelu(ad.linear(x, w1_, b1_), rate=0.1), w2_, b2_)


def nll(params):
    # mean Gaussian negative log-likelihood of the targets, unit variance:
    # half the squared error plus log(2 pi) / 2
    return ad.scale(ad.reduce_mean(ad.gaussian_log_q(target, network(params), zero_log_sigma)), -1.0)


params = [w1, b1, w2, b2]
# each layer is one linear op: x @ w + b, a single tape node
with Tape() as tape:
    loss = nll(params)
    n_nodes = len(tape.nodes)
    grads = tape.backward(loss, params)
print(f"loss = {float(loss):.6f}  ({n_nodes} tape nodes)")
for name, g in zip(("w1", "b1", "w2", "b2"), grads):
    print(f"  d loss / d {name}: norm {np.linalg.norm(g):.6f}")

print()
print("=== a vector-Jacobian product from the (4, 1) output ===")
# backward from a non-scalar root takes a cotangent v of the root's shape and
# returns the gradient of sum(v * out): one reverse sweep, no readout op on the tape
v = rng.normal(0, 1, (4, 1))
with Tape() as tape:
    out = network(params)
    vjp = tape.backward(out, params, v)
for name, g in zip(("w1", "b1", "w2", "b2"), vjp):
    print(f"  v^T d out / d {name}: norm {np.linalg.norm(g):.6f}")

print()
print("=== both, checked against central differences ===")
print(f"loss, max relative error:           {grad_check(nll, params, step=1e-6):.3e}")
print(f"output read out by v, max rel error: {grad_check(network, params, step=1e-6, readout=v):.3e}")

print()
print("=== every catalogue op, 10 random seeds each ===")
worst = op_grad_checks(n_seeds=10)
for name in sorted(worst, key=worst.get, reverse=True):
    print(f"  {name:18s} {worst[name]:.3e}")
print("all well under the 1e-5 gate" if max(worst.values()) <= 1e-5 else "SOMETHING IS WRONG")
