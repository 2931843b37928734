"""Tour of the matrix ops and the reverse-mode engine.

Builds a small differentiable computation from the ops the encoder runs,
runs backward, and verifies the gradients against central finite
differences.
"""

import numpy as np

from slotwalks import autodiff as ad

rng = np.random.default_rng(0)

print("== softmax rows are distributions ==")
logits = rng.normal(size=(3, 5))
probs = ad.softmax_rows(logits, 0.5)
print("row sums:", probs.value.sum(axis=1))

print("\n== layer norm standardizes each row ==")
normed = ad.layer_norm_rows(rng.normal(size=(3, 5)) * 4.0 + 2.0, np.ones((1, 5)))
print("row means:", normed.value.mean(axis=1))
print("row stds: ", normed.value.std(axis=1))

print("\n== backward fills leaf gradients ==")
w = ad.leaf(rng.normal(size=(5, 4)))
gain = ad.leaf(np.ones((1, 5)))
x = ad.constant(rng.normal(size=(3, 5)))
weight = ad.constant(rng.normal(size=(3, 4)))


def make_loss(nodes):
    pred = ad.softmax_rows(ad.matmul(ad.layer_norm_rows(x, nodes["gain"]), nodes["w"]), 1.0)
    return ad.sum_all(ad.mul(pred, weight))


loss = make_loss({"w": w, "gain": gain})
ad.backward(loss)
print("loss:", float(loss.value[0, 0]))
print("dL/dw has shape", w.grad.shape, "and norm", float(np.linalg.norm(w.grad)))
print("dL/dgain has shape", gain.grad.shape, "and norm", float(np.linalg.norm(gain.grad)))

print("\n== the same gradients from finite differences ==")
errors = ad.check_gradients(make_loss, {"w": w.value, "gain": gain.value})
for name, err in errors.items():
    print(f"max relative error of {name} vs central differences: {err:.3e}")
