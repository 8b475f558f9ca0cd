"""Full open-set pipeline on a synthetic intrusion problem.

Four imbalanced known attack classes (1000/500/200/50 flows) are split
8:2, z-score normalized on the training side, and a model is trained on
knowns only. Half of a held-out unknown cluster calibrates the
rejection threshold; the other half plays the role of a novel attack at
test time.
"""
from collections import Counter

import numpy as np

from rpmnet import TrainConfig, calibrate, evaluate, fit_scaler, make_split, train
from rpmnet.dataio import ClassRoles, encode_labels
from rpmnet.openset import detect, score
from rpmnet.synthetic import open_set_fixture

known, unknown = open_set_fixture(seed=42)
print("known classes:", dict(sorted(Counter(known.labels).items())))
print("unknown cluster:", unknown.shape[0], "flows the model never sees in training")

roles = ClassRoles(known=tuple(sorted(set(known.labels))))
part = make_split(known.labels, roles, ratio=0.8, seed=42)  # 0 known-train, 1 known-test
labels = np.array(known.labels)
train_x, test_x = known.features[part == 0], known.features[part == 1]
scaler = fit_scaler(train_x)

config = TrainConfig(seed=42)
params, history = train(scaler.transform(train_x), labels[part == 0].tolist(), config)
print(f"\ntrained {config.epochs} epochs; final train accuracy {history[-1].accuracy:.3f}")

known_scores = score(params, scaler.transform(train_x)).scores
val_scores = score(params, scaler.transform(unknown[:200])).scores
threshold = calibrate(known_scores, val_scores)
print(f"calibrated tau = {threshold.tau:.4f} "
      f"(validation unknown-F1 {threshold.calibration_stats['f1']:.3f})")

# evaluate reads scores and argmax predictions; it does not run the model
test = score(params, scaler.transform(test_x))
y = encode_labels(labels[part == 1], params.class_names)
report = evaluate(params.class_names, threshold, test.scores, test.predicted, y,
                  score(params, scaler.transform(unknown[200:])).scores)

print("\nknown-class metrics (rejected knowns count as errors):")
for name, m in report.per_class.items():
    print(f"  {name:8s} P={m['precision']:.3f} R={m['recall']:.3f} F1={m['f1']:.3f} n={m['support']}")
print(f"macro  P={report.macro.precision:.4f} R={report.macro.recall:.4f} F1={report.macro.f1:.4f}")
print(f"open-set: AUROC={report.auroc:.4f} AUPR-IN={report.aupr_in:.4f} AUPR-OUT={report.aupr_out:.4f}")

flagged = detect(score(params, scaler.transform(unknown[200:])), threshold)
print(f"\n{int(flagged.is_unknown.sum())} of {len(flagged)} novel flows rejected as unknown")
