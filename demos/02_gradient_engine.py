"""The reverse-mode engine that differentiates every loss in this package.

Shows graph construction through operator overloading, the backward pass,
finite-difference verification with grad_check, and a from-scratch logistic
regression trained entirely inside the engine.

Run:  python demos/02_gradient_engine.py
"""

import numpy as np

import probalign.autodiff as ad
from probalign.autodiff import Tensor, grad_check

print("A tiny graph: f(x, y) = mean(exp(x) * y)")
x = Tensor([0.0, 1.0])
y = Tensor([2.0, 3.0])
f = ad.mean_all(ad.exp(x) * y)
f.backward()
print(f"  f        = {f.item():.6f}")
print(f"  df/dx    = {x.grad}   (expected exp(x)*y/2 = {np.exp(x.data) * y.data / 2})")
print(f"  df/dy    = {y.grad}   (expected exp(x)/2   = {np.exp(x.data) / 2})")

print("\nEvery op is verified against central finite differences:")
rng = np.random.default_rng(1)
checks = {
    "logsumexp rows": lambda p: ad.mean_all(ad.logsumexp(p[0] @ ad.transpose(p[1]))),
    "l2_normalize": lambda p: ad.mean_all(ad.l2_normalize(p[0]) * ad.l2_normalize(p[1])),
}
for name, fn in checks.items():
    params = [Tensor(rng.normal(0, 1, (3, 4))), Tensor(rng.normal(0, 1, (3, 4)))]
    print(f"  {name:15s} max relative error {grad_check(fn, params):.2e}")

print("\nlogsumexp never overflows, by max subtraction:")
print(f"  logsumexp([1000, 1000]) = {ad.logsumexp(Tensor([1000.0, 1000.0])).item():.4f}")

print("\nLogistic regression by hand, start to finish:")
n, d = 200, 5
features = rng.normal(size=(n, d))
true_w = rng.normal(size=d)
labels = (features @ true_w + 0.3 * rng.normal(size=n) > 0).astype(float)

w = Tensor(np.zeros((d, 1)))
b = Tensor(np.zeros(1))
targets = Tensor(labels[:, None])
for step in range(200):
    logits = ad.matmul(Tensor(features), w) + b
    # binary cross-entropy via the stable softplus identity
    loss = ad.mean_all(ad.logsumexp(ad.concat([logits * 0.0, logits], axis=1)) - ad.sum_last(logits * targets))
    w.zero_grad()
    b.zero_grad()
    loss.backward()
    w.data -= 0.5 * w.grad
    b.data -= 0.5 * b.grad
    if step % 50 == 0 or step == 199:
        acc = float((((features @ w.data[:, 0] + b.data[0]) > 0) == labels).mean())
        print(f"  step {step:3d}: loss {loss.item():.4f}  accuracy {acc:.3f}")

cos = float(
    (w.data[:, 0] @ true_w) / (np.linalg.norm(w.data[:, 0]) * np.linalg.norm(true_w))
)
print(f"  cosine(learned w, true w) = {cos:.4f}")
