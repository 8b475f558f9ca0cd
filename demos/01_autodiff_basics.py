"""A tour of the tape-based autodiff engine: the reference that the
fused numpy training and inference code is tested against, bit for bit.

Values are computed eagerly; gradients flow backward through the
recorded tape. Everything is float64 numpy underneath.
"""
import warnings

import numpy as np

import rpmnet.autodiff as ad

# --- scalars -------------------------------------------------------------
x = ad.parameter(np.array(3.0), name="x")
y = ad.square(x)  # y = x^2
print("y = x^2 at x=3  ->", y.item())
print("dy/dx           ->", ad.gradient(y, [x])[x])  # 6

# --- a small network layer ------------------------------------------------
rng = np.random.default_rng(0)
w = ad.parameter(rng.normal(size=(4, 3)), name="w")
b = ad.parameter(np.zeros(3), name="b")
inputs = ad.constant(rng.normal(size=(8, 4)))

hidden = ad.relu(ad.add(ad.matmul(inputs, w), b))
loss = ad.reduce_mean(ad.square(hidden))
grads = ad.gradient(loss, [w, b])
print("\nmean(relu(xW+b)^2) =", f"{loss.item():.4f}")
print("grad shapes:", grads[w].shape, grads[b].shape)

# --- checking against finite differences ----------------------------------
h = 1e-5
i, j = 2, 1
base = w.value.copy()


def loss_value():
    wt = ad.constant(base)
    hid = ad.relu(ad.add(ad.matmul(inputs, wt), ad.constant(b.value)))
    return ad.reduce_mean(ad.square(hid)).item()


base[i, j] += h
up = loss_value()
base[i, j] -= 2 * h
down = loss_value()
base[i, j] += h
fd = (up - down) / (2 * h)
print(f"\nanalytic dL/dw[{i},{j}] = {grads[w][i, j]:.10f}")
print(f"numeric  dL/dw[{i},{j}] = {fd:.10f}")

# --- the guard rails -------------------------------------------------------
try:
    ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
except ad.ShapeError as e:
    print("\nshape error surfaces early:", e)

try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy also warns on the 1/0
        ad.div(ad.constant(1.0), ad.constant(0.0))
except ad.NonFiniteError as e:
    print("non-finite values refuse to propagate:", e)
