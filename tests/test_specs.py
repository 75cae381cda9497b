"""Every spec checks its values when it is built."""

from dataclasses import replace

import pytest

from noisesift import (
    SCD_VARIANT,
    CentroidVariant,
    GmmConfig,
    GridSpec,
    MethodSpec,
    NoiseSpec,
    TrainConfig,
)
from noisesift.errors import ConfigurationError

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: TrainConfig(epochs=0), id="epochs-0"),
        pytest.param(lambda: TrainConfig(batch_size=0), id="batch-size-0"),
        pytest.param(lambda: TrainConfig(learning_rate=0.0), id="learning-rate-0"),
        pytest.param(lambda: TrainConfig(momentum=1.0), id="momentum-1"),
        pytest.param(lambda: TrainConfig(momentum=-0.1), id="momentum-negative"),
        pytest.param(lambda: TrainConfig(weight_decay=-1.0), id="weight-decay-negative"),
        # NaN passes a check written `x <= 0`, so each is written to fail it.
        pytest.param(lambda: TrainConfig(learning_rate=NAN), id="learning-rate-nan"),
        pytest.param(lambda: TrainConfig(learning_rate=INF), id="learning-rate-inf"),
        pytest.param(lambda: TrainConfig(weight_decay=NAN), id="weight-decay-nan"),
        pytest.param(lambda: TrainConfig(weight_decay=INF), id="weight-decay-inf"),
        pytest.param(lambda: TrainConfig(momentum=NAN), id="momentum-nan"),
        pytest.param(lambda: GridSpec(cluster_std=NAN), id="cluster-std-nan"),
        pytest.param(lambda: GridSpec(cluster_std=INF), id="cluster-std-inf"),
        pytest.param(lambda: GridSpec(center_spacing=NAN), id="center-spacing-nan"),
        pytest.param(lambda: GridSpec(center_spacing=INF), id="center-spacing-inf"),
        pytest.param(lambda: GridSpec(classes_per_cell=0), id="classes-per-cell-0"),
        pytest.param(lambda: NoiseSpec(delta=NAN), id="delta-nan"),
        # numpy refuses negative seeds only when the generator is made.
        pytest.param(lambda: TrainConfig(seed=-1), id="train-seed-negative"),
        pytest.param(lambda: GmmConfig(k=2, seed=-1), id="gmm-seed-negative"),
        pytest.param(lambda: GridSpec(seed=-1), id="grid-seed-negative"),
        pytest.param(lambda: NoiseSpec(seed=-1), id="noise-seed-negative"),
        pytest.param(lambda: NoiseSpec(delta=-0.1), id="delta-negative"),
        pytest.param(lambda: NoiseSpec(delta=1.5), id="delta-above-1"),
        pytest.param(lambda: GmmConfig(k=0), id="gmm-k-0"),
        pytest.param(lambda: MethodSpec("m", "kmeans", ("aum",)), id="unknown-kind"),
        pytest.param(lambda: MethodSpec("m", "gmm", ("aum", "margin")), id="unknown-column"),
        pytest.param(lambda: MethodSpec("m", "threshold", ("aum", "aul")), id="threshold-two-metrics"),
        pytest.param(lambda: MethodSpec("m", "gmm", ()), id="gmm-no-metrics"),
        pytest.param(lambda: MethodSpec("m", "gmm", ("aum", "aul", "jsd")), id="gmm-three-metrics"),
        pytest.param(lambda: MethodSpec("m", "gmm", SCD_VARIANT), id="metrics-not-a-tuple"),
        pytest.param(lambda: MethodSpec("m", "gmm", ("aum",), clusters=0), id="gmm-clusters-0"),
        pytest.param(lambda: MethodSpec("m", "gmm", ("aum",), clusters=1), id="gmm-clusters-1"),
        pytest.param(lambda: replace(TrainConfig(), epochs=0), id="replace-rechecks"),
        pytest.param(lambda: replace(CentroidVariant(), epoch="start"), id="variant-replace"),
        pytest.param(lambda: CentroidVariant(centroid="median"), id="unknown-centroid-rule"),
    ],
)
def test_specs_refuse_bad_values_when_built(build):
    with pytest.raises(ConfigurationError):
        build()


def test_train_config_accepts_the_ends_of_its_ranges():
    TrainConfig(momentum=0.0, weight_decay=0.0)
