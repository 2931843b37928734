"""The two round-trip walk losses on hand-built geometry.

Whole -> parts -> whole: starting at a slot, hop to the features and
back; the composed K x K transition should be the identity, which forces
slots apart. Parts -> whole -> parts: starting at a feature cell, hop to
the slots and back; the composed N x N transition should match the
thresholded feature-feature similarity target, which forces the slots to
cover everything.
"""

import numpy as np

from slotwalks.walks import adjacency, pwp_loss, pwp_target, wpw_loss

rng = np.random.default_rng(0)

print("== two tight clusters, two matching slots ==")
slots = np.eye(2, 6)
x = np.vstack([
    np.tile(slots[0], (5, 1)),
    np.tile(slots[1], (5, 1)),
]) + rng.normal(scale=0.01, size=(10, 6))

m_sx, m_xs, _ = adjacency(slots, x, tau=0.05)  # slots -> cells, cells -> slots
print("slot 0 walk mass on its own cluster:", m_sx.value[0, :5].sum())
print("cell 0 walk mass on slot 0:", m_xs.value[0, 0])
print("wpw loss (should be ~0):", float(wpw_loss(m_sx, m_xs).value[0, 0]))

print("\n== the parts-whole-parts target ==")
target = pwp_target(x, gamma=0.7)
print("row sums:", np.unique(np.round(target.sum(axis=1), 12)))
print("mass a cluster-0 cell sends to cluster 0:", target[0, :5].sum())
print("pwp loss with matching slots:", float(pwp_loss(m_sx, m_xs, x, 0.7).value[0, 0]))

print("\n== a slot that covers nothing is punished ==")
bad_slots = np.vstack([slots[0], slots[0]])  # both slots on cluster 0
bad_sx, bad_xs, _ = adjacency(bad_slots, x, tau=0.05)
print("wpw loss with duplicated slots:", float(wpw_loss(bad_sx, bad_xs).value[0, 0]))
print("pwp loss with duplicated slots:", float(pwp_loss(bad_sx, bad_xs, x, 0.7).value[0, 0]))
print("(both round trips break: duplicated slots cannot return home,")
print(" and cluster-1 cells cannot walk back to themselves)")
