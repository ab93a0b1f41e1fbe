"""Tour of the tape-based gradient engine.

Builds a tiny network by hand, runs a backward pass, and then lets the
finite-difference checker loose on every operation in the catalogue.
"""

import numpy as np

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import Tape, Tensor, grad_check
from infogan_lab.gradsuite import op_grad_checks

print("=== a two-layer network, by hand ===")
rng = np.random.default_rng(0)
x = Tensor(rng.normal(0, 1, (4, 3)))
w1 = Tensor(rng.normal(0, 0.5, (3, 5)))
b1 = Tensor(np.zeros(5))
w2 = Tensor(rng.normal(0, 0.5, (5, 1)))
b2 = Tensor(np.zeros(1))

# each layer is one linear op: x @ w + b, a single tape node
with Tape() as tape:
    h = ad.lrelu(ad.linear(x, w1, b1), rate=0.1)
    out = ad.linear(h, w2, b2)
    loss = ad.reduce_mean(ad.mul(out, out))
    grads = tape.backward(loss, [w1, b1, w2, b2])
print(f"loss = {float(loss):.6f}")
for name, g in zip(("w1", "b1", "w2", "b2"), grads):
    print(f"  d loss / d {name}: norm {np.linalg.norm(g):.6f}")

print()
print("=== the same gradients, checked against central differences ===")


def loss_fn(params):
    w1_, b1_, w2_, b2_ = params
    out_ = ad.linear(ad.lrelu(ad.linear(x, w1_, b1_), rate=0.1), w2_, b2_)
    return ad.reduce_mean(ad.mul(out_, out_))


err = grad_check(loss_fn, [w1, b1, w2, b2], step=1e-6)
print(f"max relative error: {err:.3e}")

print()
print("=== every catalogue op, 10 random seeds each ===")
worst = op_grad_checks(n_seeds=10)
for name in sorted(worst, key=worst.get, reverse=True):
    print(f"  {name:18s} {worst[name]:.3e}")
print("all well under the 1e-5 gate" if max(worst.values()) <= 1e-5 else "SOMETHING IS WRONG")
