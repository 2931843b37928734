"""How slots compete for feature locations.

Runs the untrained encoder on a labeled synthetic scene and prints how
the attention distributes the cells over the slots, iteration by
iteration. Untrained slots already partition the scene (softmax
competition forces a choice); training makes the partition follow the
classes.
"""

import numpy as np

from slotwalks.data import SceneConfig, generate_scene
from slotwalks.slots import SlotParams, attention_step, encode, gru_update, init_slots

cfg = SceneConfig(height=8, width=8, classes=3, feature_dim=32, noise_std=0.05)
scene = generate_scene(cfg, seed=3)
params = SlotParams.create(num_slots=3, input_dim=32, slot_dim=64, seed=0)

slots = init_slots(params)
print("iteration 0: slots start at the learned means")
for it in range(1, 4):
    state = attention_step(scene.features, slots, params)
    slots = gru_update(slots, state.updates, params)
    attn = state.attn.value
    hard = attn.argmax(axis=1)
    print(f"iteration {it}: attention row sums all 1 -> {np.allclose(attn.sum(axis=1), 1.0)}; "
          f"cells per slot {np.bincount(hard, minlength=3)}")

print("\nground-truth cells per class:", np.bincount(scene.labels, minlength=3))

slots_hat, state = encode(scene.features, params, iterations=3)
hard = state.attn.value.argmax(axis=1)
agreement = np.zeros((3, 3), dtype=int)
for s, c in zip(hard, scene.labels):
    agreement[s, c] += 1
print("\nslot x class agreement of the untrained encoder:")
print(agreement)
print("(rows are slots, columns are classes; training sharpens this to a permutation)")
