"""A segment scan for ``phased_erm``'s exact 1-D absolute-deviation phase:
a test oracle for ``dpsco.optimizers._exact_regularized_erm``, which must
return its point bit for bit.

The phase objective mean |a_j w - b_j| + (lam/2)(w - c)^2 has a subgradient
that is a nondecreasing step function of w, with jumps at the kinks
b_j / a_j. The scan walks the segments between kinks, left to right, and
stops at the first segment whose linear zero lies inside it, or the first
kink at which the subgradient changes sign; the point is then projected onto
the domain. Its segment test is strict, so a zero that rounds onto the
segment's right kink is missed, and the scan falls through to the last
segment's zero. That has been seen only on exact ties (w_prev on a kink,
lam a power of 2), which the bit-for-bit test does not draw."""

import math

import numpy as np

from dpsco.geometry import project


def absdev_scan(domain, block, w_prev, lam):
    """Minimize mean |a w - b| + (lam/2)(w - c)^2 over a 1-D domain by
    scanning the segments between the sorted kinks for the subgradient's zero
    crossing, then clamp."""
    a = block.features[:, 0]
    b = block.targets
    c = float(w_prev[0])
    n = len(block)
    live = np.abs(a) > 0.0
    roots = b[live] / a[live]
    order = np.argsort(roots)
    kinks = roots[order]
    weights = (np.abs(a[live]) / n)[order]
    # G(w) = sum_j weights_j * sign(w - kink_j) + lam (w - c), on each open
    # segment G is linear with slope lam
    base = -float(np.sum(weights))  # sign sum left of every kink
    best_w = None
    prev_kink = -math.inf
    sign_sum = base
    for j in range(len(kinks) + 1):
        right = kinks[j] if j < len(kinks) else math.inf
        cand = c - sign_sum / lam  # zero of the segment's linear G
        if prev_kink < cand < right:
            best_w = cand
            break
        if j < len(kinks):
            g_left = sign_sum + lam * (kinks[j] - c)
            g_right = sign_sum + 2.0 * weights[j] + lam * (kinks[j] - c)
            if g_left <= 0.0 <= g_right:
                best_w = float(kinks[j])
                break
            sign_sum += 2.0 * weights[j]
            prev_kink = kinks[j]
    if best_w is None:  # all sign mass on one side; G monotone crosses anyway
        best_w = c - sign_sum / lam
    return project(domain, np.array([best_w]))
