"""Max-distance scoring vs. the max-softmax-probability baseline.

Both scorers rank the same samples; this compares their AUROC /
AUPR-OUT on the synthetic open-set fixture. Note the direction flags:
the distance score is HIGH for knowns, MSP confidence is also high for
knowns but lives in (0, 1] and saturates.
"""
import numpy as np

from rpmnet import TrainConfig, auroc, aupr, fit_scaler, make_split, train
from rpmnet.dataio import ClassRoles
from rpmnet.openset import msp_score, score
from rpmnet.synthetic import open_set_fixture

known, unknown = open_set_fixture(seed=42)
roles = ClassRoles(known=tuple(sorted(set(known.labels))))
part = make_split(known.labels, roles, ratio=0.8, seed=42)  # 0 known-train, 1 known-test
scaler = fit_scaler(known.features[part == 0])

params, _ = train(scaler.transform(known.features[part == 0]),
                  np.array(known.labels)[part == 0].tolist(), TrainConfig(seed=42))

known_x = scaler.transform(known.features[part == 1])
unknown_x = scaler.transform(unknown)
flags = np.concatenate([np.ones(len(known_x), dtype=bool), np.zeros(len(unknown_x), dtype=bool)])

dist_scores = np.concatenate([score(params, known_x).scores, score(params, unknown_x).scores])
msp_scores = np.concatenate([msp_score(params, known_x), msp_score(params, unknown_x)])

print(f"{'scorer':18s} {'AUROC':>8s} {'AUPR-OUT':>10s}")
for name, scores in (("max distance", dist_scores), ("max softmax prob", msp_scores)):
    roc = auroc(scores, flags, higher_means_known=True)
    pr_out = aupr(scores, ~flags, higher_means_positive=False)
    print(f"{name:18s} {roc:8.4f} {pr_out:10.4f}")

print("\nscore ranges (known test vs unknown):")
nk = len(known_x)
for name, scores in (("max distance", dist_scores), ("max softmax prob", msp_scores)):
    print(f"  {name:18s} known [{scores[:nk].min():.3f}, {scores[:nk].max():.3f}]"
          f"  unknown [{scores[nk:].min():.3f}, {scores[nk:].max():.3f}]")
