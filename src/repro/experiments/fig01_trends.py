"""Figure 1: hardware peak performance vs per-convolution work across CNN generations.

The paper pairs a representative network with a contemporary GPU for 2013,
2015 and 2018 (VGG + GTX 980Ti, Inception V3 + GTX 1080, NasNet + Tesla V100)
and shows that while device peak throughput tripled, the average FLOPs per
convolution dropped by more than an order of magnitude and the number of
convolutions grew — so a single operator can no longer saturate the device.
"""

from __future__ import annotations

from ..hardware.device import get_device
from ..ir.flops import conv_statistics
from ..tables import ExperimentTable
from .runner import ExperimentContext, default_context

__all__ = ["run_figure1", "TREND_POINTS"]

#: (year, network, device) triples used by the paper's Figure 1.
TREND_POINTS = [
    (2013, "vgg_16", "gtx980ti"),
    (2015, "inception_v3", "gtx1080"),
    (2018, "nasnet_a", "v100"),
]


def run_figure1(points=None, context: ExperimentContext | None = None) -> ExperimentTable:
    """Reproduce the three trend lines of Figure 1."""
    ctx = context or default_context()
    points = points or TREND_POINTS
    table = ExperimentTable(
        experiment_id="figure1",
        title="Figure 1: average FLOPs per convolution, #convolutions and device peak",
        columns=[
            "year",
            "network",
            "device",
            "num_convolutions",
            "avg_mflops_per_conv",
            "device_peak_gflops",
            "utilization_gap",
        ],
        notes=(
            "utilization_gap = peak GFLOPs/s divided by the GFLOPs of an average "
            "convolution; the larger it is, the less a single operator can fill the GPU."
        ),
    )
    for year, model_name, device_name in points:
        graph = ctx.graph(model_name)
        stats = conv_statistics(graph)
        device = get_device(device_name)
        peak_gflops = device.peak_fp32_tflops * 1e3
        avg_gflops = stats.average_flops_per_conv / 1e9
        table.add_row(
            year=year,
            network=model_name,
            device=device.name,
            num_convolutions=stats.num_convolutions,
            avg_mflops_per_conv=stats.average_mflops_per_conv,
            device_peak_gflops=peak_gflops,
            utilization_gap=peak_gflops / avg_gflops if avg_gflops > 0 else float("inf"),
        )
    return table
