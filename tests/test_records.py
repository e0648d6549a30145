"""The frozen records behind every analysis type: built from their fields
by position or keyword with their defaults applied, immutable, equal and
hashed by their field values, and printed in the dataclass format
``Name(field=value, ...)``.
"""
import datetime as dt

import numpy as np
import pytest

from hurstlab.dfa import DfaConfig
from hurstlab.downfalls import (
    CriticalLevel,
    Downfall,
    KurtosisScan,
)
from hurstlab.regression import EstimatorKind, PowerLawFit, ScalingCurve
from hurstlab.rescaled_range import (
    DEFAULT_MIN_SEGMENT,
    HurstEstimate,
    PartitionPlan,
    PartitionPolicy,
    RSSegmentStats,
    StdMode,
)
from hurstlab.rolling import (
    MarketClass,
    MarketClassKind,
    RollingConfig,
    RollingMeasurement,
    RollingTrace,
    TraceSummary,
)
from hurstlab.series import CsvConfig, PriceSeries, ReturnSeries, Transform
from hurstlab.synthetic import GeneratorKind, GeneratorSpec
from hurstlab.vstat import Trend, VStatCurve

_DAYS = tuple(dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(3))
_CURVE = ScalingCurve(scales=(8, 16, 32), statistics=(1.0, 2.0, 4.0),
                      kind=EstimatorKind.RESCALED_RANGE)

#: (record class, every field in declared order with a valid value, the
#: default of each field that has one). Each default differs from the
#: example's value, so a default that is not applied shows; a
#: RollingConfig's estimator is the one exception, as R/S, the default,
#: is the estimator that reads every field.
RECORDS = [
    (GeneratorSpec, dict(kind=GeneratorKind.FGN, length=64, seed=1, h=0.7,
                         drift=0.5, volatility=2.0),
     dict(h=None, drift=0.0, volatility=1.0)),
    (PriceSeries, dict(dates=_DAYS, closes=np.array([1.0, 2.0, 3.0])), {}),
    (ReturnSeries, dict(transform=Transform.RAW, dates=_DAYS[1:],
                        values=np.array([0.1, -0.1])), {}),
    (CsvConfig, dict(delimiter=";", date_column=2, close_column=0,
                     date_format="%d/%m/%Y"),
     dict(delimiter=",", date_column=0, close_column=1,
          date_format="%Y-%m-%d")),
    (RollingConfig, dict(window=100, lag=2,
                         estimator=EstimatorKind.RESCALED_RANGE,
                         plan_policy=PartitionPolicy.DIVISORS_ONLY,
                         min_segment_length=16, std_mode=StdMode.SAMPLE),
     dict(window=250, lag=5, estimator=EstimatorKind.RESCALED_RANGE,
          plan_policy=PartitionPolicy.AUTO,
          min_segment_length=DEFAULT_MIN_SEGMENT,
          std_mode=StdMode.POPULATION)),
    (RollingMeasurement, dict(end_date=_DAYS[0], h=None, r_squared=None,
                              note="TooFewError: 2 values"),
     dict(note="")),
    (RollingTrace, dict(end_dates=_DAYS[:2], h=(0.6, None),
                        r_squared=(0.9, None),
                        notes=("", "TooFewError: 2 values")), {}),
    (TraceSummary, dict(h_min=0.4, h_max=0.6, h_mean=0.5,
                        first_measurement_date=_DAYS[0], count=3,
                        proportions={0.5: 0.25}, fraction_below_half=0.5),
     {}),
    (MarketClass, dict(kind=MarketClassKind.HYBRID, rationale="fits neither"),
     {}),
    (ScalingCurve, dict(scales=(8, 16, 32), statistics=(1.0, 2.0, 4.0),
                        kind=EstimatorKind.DFA), {}),
    (PowerLawFit, dict(exponent=0.0, intercept=1.0, r_squared=0.0,
                       flat=True),
     dict(flat=False)),
    (VStatCurve, dict(log_scales=(1.0, 2.0, 3.0), v_values=(1.0, 1.1, 1.2),
                      slope=0.1, trend=Trend.INCREASING, peak_scale=20), {}),
    (Downfall, dict(peak_date=_DAYS[0], trough_date=_DAYS[1],
                    recovery_date=None, depth=0.1,
                    peak_index=0, trough_index=1, recovery_index=None), {}),
    (KurtosisScan, dict(upper_index=(4, 6), upper_value=(0.2, 0.3),
                        excess_kurtosis=(1.5, -0.5), skipped_subsets=(5,)),
     dict(skipped_subsets=())),
    (CriticalLevel, dict(cutoff_depth=0.3, cutoff_index=10,
                         kurtosis_at_cutoff=2.0), {}),
    (PartitionPlan, dict(total_length=64, segment_lengths=(8, 16, 32)), {}),
    (RSSegmentStats, dict(mean=0.0, std_dev=1.0, range=3.0, ratio=3.0), {}),
    (HurstEstimate, dict(h=0.6, r_squared=0.9, curve=_CURVE,
                         skipped_segments=((8, 1),),
                         flags=("flat_curve",)),
     dict(skipped_segments=(), flags=())),
    (DfaConfig, dict(box_sizes=(4, 8, 16)), {}),
]

#: Records holding an array or a dict, which are unhashable
UNHASHABLE = (PriceSeries, ReturnSeries, TraceSummary)


def test_every_record_class_is_listed():
    import hurstlab.cli  # noqa: F401 - imports every module
    from hurstlab._record import Record

    assert len(RECORDS) == 19
    assert set(Record.__subclasses__()) == {cls for cls, _, _ in RECORDS}


def test_plan_and_trace_keep_only_what_is_read():
    # A plan is its segment lengths, a trace its columns; neither keeps
    # the policy or the config that made it.
    assert PartitionPlan._fields == ("total_length", "segment_lengths")
    assert RollingTrace._fields == ("end_dates", "h", "r_squared", "notes")


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record(cls, fields, defaults):
    record = cls(**fields)
    assert cls(*fields.values()) == record

    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.other = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == fields[first]

    twin = cls(**fields)
    assert twin == record and not twin != record
    assert record != (*fields.values(),)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert {record: 1}[twin] == 1

    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"

    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})
    required = [name for name in fields if name not in defaults]
    if required:
        with pytest.raises(TypeError, match=repr(required[-1])):
            cls(**{name: fields[name] for name in fields
                   if name != required[-1]})

    minimal = cls(**{name: fields[name] for name in required})
    for name, default in defaults.items():
        assert getattr(minimal, name) == default

