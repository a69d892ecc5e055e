"""The reverse-mode engine underneath the classifier.

Run:  python demos/02_autodiff_basics.py
"""

import numpy as np

from ssnl import autodiff as ad
from ssnl.autodiff import Tensor
from ssnl.data import standardize

# Leaves opt into gradients; an op records its local rule when one of its
# inputs needs a gradient; backward() replays the graph once in reverse
# topological order.
w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
x = Tensor(np.array([[1.0], [3.0]]), requires_grad=True)
loss = ad.mean(ad.activation("tanh", ad.matmul(w, x), np.zeros(1)))
loss.backward()
print("loss       :", loss.item())
print("d loss / dw:\n", w.grad)
print("d loss / dx:\n", x.grad)

# Gradients accumulate additively across fan-out: each mean hands every
# element 1/4.
y = Tensor(np.ones(4), requires_grad=True)
ad.add(ad.mean(y), ad.mean(y)).backward()
print("\nfan-out gradient (expect all 0.5):", y.grad)

# The building blocks of the model, in isolation. Every nonlinearity is one
# op with a bias: act(x + b), or tanh(act(x) + b) for a spectral state update.
seq = Tensor(np.array([[1.0], [2.0], [3.0]]))      # length 3, one channel
box = Tensor(np.array([[1.0, 1.0, 1.0]]))          # width-3 box kernel
print("\nconv1d box kernel on [1,2,3]:", ad.conv1d(seq, box).data.ravel())

z = Tensor(np.array([0.0, 1.0]))
print("silu([0, 1] + 0.5)        :", ad.activation("silu", z, np.full(2, 0.5)).data)
print("tanh(silu([0, 1]) + 0.5)  :", ad.activation("silu", z, np.full(2, 0.5), tanh_after=True).data)

# The classifier's probabilities are data, not a graph node: softmax takes and
# returns an array (training differentiates the cross-entropy of the logits).
print("softmax [0, ln3]          :", ad.softmax(np.array([0.0, np.log(3.0)])))  # [0.25, 0.75]

# The model's input: per-pixel standardization on data, outside the graph,
# then a learned gain and bias. Training folds those into the weights that
# read the input: fold(W, gain, bias, axis) is the weight of the input with a
# ones channel appended. Folding the identity gives the scaled pixels.
weight = ad.fold(Tensor(np.eye(2)), Tensor(np.ones(2)), Tensor(np.zeros(2)), 0)
xn = ad.matmul(np.append(standardize(np.array([0.0, 2.0])), 1.0), weight)
print("standardized [0, 2]       :", xn.data)                # [-1, 1] / sqrt(1 + 1e-5)

# Checking machinery: worst relative error of tape gradients against
# central finite differences, per coordinate.
rng = np.random.default_rng(0)
a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
b = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
c = Tensor(rng.standard_normal(2), requires_grad=True)


def objective(a_, b_, c_):
    return ad.mean(ad.activation("silu", ad.matmul(a_, b_), c_))


err = ad.grad_check(objective, [a, b, c], step=1e-6)
print(f"\ngrad_check worst relative error: {err:.2e}")
