"""Tour of the matrix ops and the reverse-mode engine.

Builds a small differentiable computation, runs backward, and verifies
the gradients against central finite differences.
"""

import numpy as np

from slotwalks import autodiff as ad

rng = np.random.default_rng(0)

print("== softmax rows are distributions ==")
logits = rng.normal(size=(3, 5))
probs = ad.softmax_rows(logits, 0.5)
print("row sums:", probs.value.sum(axis=1))

print("\n== cross entropy against a one-hot target ==")
target = np.eye(3, 5)
loss = ad.cross_entropy_rows(probs, target)
print("loss:", float(loss.value[0, 0]))

print("\n== backward fills leaf gradients ==")
w = ad.leaf(rng.normal(size=(5, 4)))
x = ad.constant(rng.normal(size=(3, 5)))
pred = ad.softmax_rows(ad.matmul(x, w), 1.0)
loss = ad.cross_entropy_rows(pred, np.eye(3, 4))
ad.backward(loss)
print("dL/dw has shape", w.grad.shape, "and norm", float(np.linalg.norm(w.grad)))

print("\n== the same gradient from finite differences ==")
def make_loss(nodes):
    p = ad.softmax_rows(ad.matmul(x, nodes["w"]), 1.0)
    return ad.cross_entropy_rows(p, np.eye(3, 4))

errors = ad.check_gradients(make_loss, {"w": w.value})
print("max relative error vs central differences:", errors["w"])
