import dataclasses
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpmnet.dataio as dio
import rpmnet.model as mdl
import rpmnet.openset as osr
from rpmnet.config import TrainConfig


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def tiny_bundle(threshold=None):
    rng = np.random.default_rng(0)
    cfg = TrainConfig(hidden_dims=(6, 5), embed_dim=3, seed=7)
    params = mdl.init_params(4, ["alpha", "beta"], cfg, rng)
    scaler = dio.Scaler(mean=rng.normal(size=4), std=np.abs(rng.normal(size=4)) + 0.5)
    return dio.Bundle(
        params=params,
        scaler=scaler,
        config=cfg,
        feature_names=("f0", "f1", "f2", "f3"),
        label_column="label",
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# CSV loading and cleaning


def test_load_csv_drops_nonfinite_rows(tmp_path):
    path = write(
        tmp_path / "flows.csv",
        "f0,f1,label\n1.0,2.0,a\nInfinity,3.0,b\n4.0,5.0,a\n",
    )
    ds, dropped = dio.load_csv(path)
    assert dropped == 1
    assert len(ds) == 2
    assert ds.labels == ("a", "a")
    assert np.array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])


def test_load_csv_drops_nan_and_text_rows(tmp_path):
    path = write(
        tmp_path / "flows.csv",
        "f0,f1,label\nNaN,1.0,a\noops,1.0,a\n2.0,2.0,b\n1,3,b\n",
    )
    ds, dropped = dio.load_csv(path)
    assert dropped == 2
    assert len(ds) == 2


def test_load_csv_header_only_is_empty_error(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,f1,label\n")
    with pytest.raises(dio.EmptyDatasetError):
        dio.load_csv(path)
    ds, _ = dio.load_csv(path, allow_empty=True)
    assert len(ds) == 0


def test_load_csv_no_header_at_all(tmp_path):
    path = write(tmp_path / "flows.csv", "")
    with pytest.raises(dio.EmptyDatasetError):
        dio.load_csv(path)


def test_load_csv_missing_column_named(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,f1,label\n1,2,a\n")
    with pytest.raises(dio.SchemaError, match="f9"):
        dio.load_csv(path, feature_names=["f0", "f9"])
    with pytest.raises(dio.SchemaError, match="category"):
        dio.load_csv(path, label_column="category")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ds = dio.FlowDataset(
        features=rng.normal(size=(10, 3)),
        labels=tuple(rng.choice(["x", "y"], size=10)),
        feature_names=("a", "b", "c"),
    )
    path = tmp_path / "out.csv"
    dio.save_csv(path, ds)
    back, dropped = dio.load_csv(str(path))
    assert dropped == 0
    assert np.array_equal(back.features, ds.features)
    assert back.labels == ds.labels
    assert back.feature_names == ds.feature_names


def test_custom_label_column(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,Attack Type\n1.5,dos\n", )
    ds, _ = dio.load_csv(path, label_column="Attack Type")
    assert ds.labels == ("dos",)
    assert ds.feature_names == ("f0",)


def reference_extract(header, rows, feature_names):
    """Per-cell ``float()`` parser that ``extract_features`` must match."""
    positions = [header.index(name) for name in feature_names]
    kept, kept_idx, dropped = [], [], 0
    for i, row in enumerate(rows):
        if len(row) != len(header):
            dropped += 1
            continue
        try:
            vec = [float(row[p]) for p in positions]
        except ValueError:
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in vec):
            dropped += 1
            continue
        kept.append(vec)
        kept_idx.append(i)
    return np.asarray(kept, dtype=np.float64).reshape(len(kept), len(positions)), kept_idx, dropped


QUIRKY_CELLS = [
    "1_000", " 1.5 ", "Infinity", "-inf", "nan", "NaN", "1e400", "-1e400", "4.9e-324", "-0.0",
    "", "0x10", "1,5", "abc", "\u0661\u0662", "+.5", "1e", ".", "\t2\n",
]
cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from(["%e" % v, "%g" % v, "%.20f" % v])
    ),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(QUIRKY_CELLS),
    st.text(max_size=4),
)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    feature_names = draw(st.permutations(header))[: draw(st.integers(0, width))]
    rows = draw(
        st.lists(
            st.integers(max(width - 1, 0), width + 1).flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
            max_size=12,
        )
    )
    return header, rows, feature_names


@given(csv_tables())
@settings(max_examples=300, deadline=None)
def test_extract_features_matches_per_cell_float(table):
    header, rows, feature_names = table
    features, kept_idx, dropped = dio.extract_features(header, rows, feature_names)
    ref_features, ref_idx, ref_dropped = reference_extract(header, rows, feature_names)
    assert features.dtype == np.float64
    assert features.shape == ref_features.shape
    assert features.tobytes() == ref_features.tobytes()
    assert kept_idx == ref_idx
    assert dropped == ref_dropped


def test_extract_features_single_feature_schema():
    header = ["a", "b", "label"]
    rows = [["1", "2.5", "x"], ["1", "oops", "x"], ["1", "inf", "x"], ["1", " -3 ", "y"], ["1", "2"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, ["b"])
    assert features.shape == (2, 1)
    assert np.array_equal(features, [[2.5], [-3.0]])
    assert kept_idx == [0, 3]
    assert dropped == 3


def test_extract_features_every_row_dropped():
    header = ["a", "b"]
    rows = [["nan", "1"], ["1", ""], ["1"], ["Infinity", "2"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, ["a", "b"])
    assert features.shape == (0, 2)
    assert kept_idx == []
    assert dropped == 4


def test_extract_features_zero_features_keeps_well_formed_rows():
    header = ["label"]
    rows = [["x"], ["y", "extra"], ["z"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, [])
    assert features.shape == (2, 0)
    assert kept_idx == [0, 2]
    assert dropped == 1


def test_load_csv_skips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbff0,f1,label\n1.0,2.0,a\n")
    ds, _ = dio.load_csv(str(path))
    assert ds.feature_names == ("f0", "f1")
    assert np.array_equal(ds.features, [[1.0, 2.0]])
    assert ds.labels == ("a",)


@pytest.mark.parametrize(
    "text,named",
    [
        ("a,a,label\n1,2,x\n3,4,y\n", "a"),
        ("a,b,a,b,label\n1,2,3,4,x\n", "a, b"),
        ("a,label,label\n1,x,y\n", "label"),
    ],
)
def test_load_csv_rejects_duplicated_columns(tmp_path, text, named):
    path = write(tmp_path / "dup.csv", text)
    with pytest.raises(dio.SchemaError, match=f"duplicated columns: {named};"):
        dio.load_csv(path)


def test_load_csv_ignores_duplicates_it_does_not_read(tmp_path):
    path = write(tmp_path / "dup.csv", "a,b,b,label\n1,2,3,x\n")
    ds, _ = dio.load_csv(path, feature_names=["a"])
    assert np.array_equal(ds.features, [[1.0]])


# ---------------------------------------------------------------------------
# scaler


def test_scaler_standardizes_its_fit_set(rng):
    x = rng.normal(3.0, 2.5, size=(200, 4))
    scaler = dio.fit_scaler(x)
    z = scaler.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_scaler_constant_feature_maps_to_zero():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z = dio.fit_scaler(x).transform(x)
    assert np.array_equal(z[:, 1], np.zeros(3))


def test_scaler_two_point_feature():
    # population std of {0, 2} is 1: scales to -1 and +1 exactly
    x = np.array([[0.0], [2.0]])
    z = dio.fit_scaler(x).transform(x)
    assert np.array_equal(z, [[-1.0], [1.0]])


def test_scaler_inverse_recovers(rng):
    x = rng.normal(size=(50, 3)) * np.array([10.0, 0.1, 1.0])
    scaler = dio.fit_scaler(x)
    assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9)


# ---------------------------------------------------------------------------
# roles and splitting


def roles_abc():
    return dio.ClassRoles(known=("a", "b"), validation_unknown=("v",), test_unknown=("u",))


def dataset_with(labels, rng):
    labels = tuple(labels)
    return dio.FlowDataset(
        features=np.column_stack([np.arange(len(labels), dtype=np.float64), rng.normal(size=len(labels))]),
        labels=labels,
        feature_names=("row_id", "noise"),
    )


def test_split_eight_to_two(rng):
    ds = dataset_with(["a"] * 10 + ["b"] * 10 + ["v"] * 3 + ["u"] * 4, rng)
    split = dio.make_split(ds, roles_abc(), ratio=0.8, seed=0)
    counts = split.known_train.class_counts()
    assert counts == {"a": 8, "b": 8}
    assert split.known_test.class_counts() == {"a": 2, "b": 2}
    assert len(split.val_unknown) == 3
    assert len(split.test_unknown) == 4


def test_split_deterministic(rng):
    ds = dataset_with(["a"] * 25 + ["b"] * 13 + ["v"] * 5 + ["u"] * 5, rng)
    s1 = dio.make_split(ds, roles_abc(), seed=11)
    s2 = dio.make_split(ds, roles_abc(), seed=11)
    assert np.array_equal(s1.known_train.features, s2.known_train.features)
    assert np.array_equal(s1.known_test.features, s2.known_test.features)


def test_split_partitions_are_disjoint_and_complete(rng):
    ds = dataset_with(["a"] * 17 + ["b"] * 9 + ["v"] * 4 + ["u"] * 6, rng)
    split = dio.make_split(ds, roles_abc(), seed=3)
    ids = np.concatenate(
        [part.features[:, 0] for part in (split.known_train, split.known_test, split.val_unknown, split.test_unknown)]
    )
    assert len(ids) == len(ds)
    assert len(np.unique(ids)) == len(ds)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(2, 60))
def test_split_proportions_within_one_sample(na, nb):
    rng = np.random.default_rng(0)
    ds = dataset_with(["a"] * na + ["b"] * nb, rng)
    roles = dio.ClassRoles(known=("a", "b"))
    split = dio.make_split(ds, roles, ratio=0.8, seed=1)
    for name, n in (("a", na), ("b", nb)):
        got = split.known_train.class_counts().get(name, 0)
        assert abs(got - 0.8 * n) <= 1.0
        assert 1 <= got <= n - 1


def test_split_unassigned_class_is_listed(rng):
    ds = dataset_with(["a", "a", "mystery", "mystery"], rng)
    with pytest.raises(dio.RolesError, match="mystery"):
        dio.make_split(ds, dio.ClassRoles(known=("a",)), seed=0)


def test_split_wildcard_default_role(rng):
    ds = dataset_with(["a", "a", "b", "b", "odd", "odd"], rng)
    roles = dio.ClassRoles(known=("a", "b"), default=dio.ROLE_TEST_UNKNOWN)
    split = dio.make_split(ds, roles, seed=0)
    assert split.test_unknown.class_counts() == {"odd": 2}


def test_split_known_class_needs_two_samples(rng):
    ds = dataset_with(["a", "b", "b"], rng)
    with pytest.raises(ValueError, match="at least 2"):
        dio.make_split(ds, dio.ClassRoles(known=("a", "b")), seed=0)


def test_roles_overlap_rejected():
    with pytest.raises(dio.RolesError, match="both"):
        dio.ClassRoles(known=("a",), validation_unknown=("a",))


def test_roles_file_round_trip(tmp_path):
    path = write(
        tmp_path / "roles.json",
        json.dumps(
            {
                "known": ["a", "b"],
                "validation_unknown": ["v"],
                "test_unknown": ["u"],
                "label_column": "Label",
            }
        ),
    )
    roles = dio.load_roles(path)
    assert roles.known == ("a", "b")
    assert roles.label_column == "Label"
    assert roles.role_of("v") == dio.ROLE_VALIDATION_UNKNOWN
    assert roles.role_of("zzz") is None


def test_roles_file_unknown_key(tmp_path):
    path = write(tmp_path / "roles.json", '{"known": ["a"], "bogus": 1}')
    with pytest.raises(dio.RolesError, match="bogus"):
        dio.load_roles(path)


def test_roles_file_requires_known(tmp_path):
    path = write(tmp_path / "roles.json", '{"test_unknown": ["u"]}')
    with pytest.raises(dio.RolesError, match="known"):
        dio.load_roles(path)


@pytest.mark.parametrize("name,n_known", [("cicids2017", 5), ("unsw_nb15", 6)])
def test_shipped_presets_load(name, n_known):
    roles = dio.load_roles(dio.preset_roles_path(name))
    assert len(roles.known) == n_known
    assert roles.validation_unknown and roles.test_unknown


# ---------------------------------------------------------------------------
# bundle persistence


def test_bundle_round_trip_byte_identical(tmp_path):
    thr = osr.Threshold(tau=1.25, calibration_method="max-unknown-f1", calibration_stats={"f1": 1.0})
    bundle = tiny_bundle(threshold=thr)
    p1, p2 = tmp_path / "m1.bundle", tmp_path / "m2.bundle"
    dio.save_bundle(p1, bundle)
    loaded = dio.load_bundle(p1)
    dio.save_bundle(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.threshold.tau == 1.25
    assert loaded.params.class_names == ("alpha", "beta")
    assert loaded.config == bundle.config
    for name, arr in bundle.params.trainable().items():
        assert np.array_equal(arr, loaded.params.trainable()[name])
    assert np.array_equal(loaded.scaler.mean, bundle.scaler.mean)


def test_bundle_without_threshold(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    assert dio.load_bundle(path).threshold is None


def test_bundle_tampered_payload_fails_checksum(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.BundleIntegrityError, match="checksum"):
        dio.load_bundle(path)


def test_bundle_truncated_fails(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(dio.BundleIntegrityError):
        dio.load_bundle(path)


def test_bundle_not_a_bundle(tmp_path):
    path = tmp_path / "m.bundle"
    path.write_bytes(b"definitely not a bundle")
    with pytest.raises(dio.BundleIntegrityError):
        dio.load_bundle(path)


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a saved bundle's manifest and re-seal its CRC."""
    blob = path.read_bytes()
    body = blob[4:-4]
    (mlen,) = struct.unpack("<I", body[:4])
    manifest = json.loads(body[4 : 4 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    new_body = struct.pack("<I", len(mbytes)) + mbytes + body[4 + mlen :]
    crc = zlib.crc32(new_body) & 0xFFFFFFFF
    path.write_bytes(b"RPMB" + new_body + struct.pack("<I", crc))


def test_bundle_version_mismatch_names_versions(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, lambda m: m.update(format="rpmnet-bundle/99"))
    with pytest.raises(dio.BundleVersionError, match=r"rpmnet-bundle/99.*rpmnet-bundle/1"):
        dio.load_bundle(path)


@pytest.mark.parametrize("key", ["sections", "config", "threshold", "W1", "scaler_std"])
def test_bundle_malformed_manifest_names_missing_key(tmp_path, key):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    if key in ("W1", "scaler_std"):
        edit = lambda m: m.update(sections=[e for e in m["sections"] if e["name"] != key])
    else:
        edit = lambda m: m.pop(key)
    rewrite_manifest(path, edit)
    with pytest.raises(dio.BundleError, match=f"missing '{key}'"):
        dio.load_bundle(path)
