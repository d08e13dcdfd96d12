#!/usr/bin/env python3
"""Cross-generation study: how GPU evolution sways offloading decisions.

Section III's point, extended: the same kernels, the same host, three GPU
generations (Kepler → Pascal → Volta) plus a hypothetical follow-on card —
watch decisions flip as bandwidth and interconnects improve.  Defining a
new accelerator is a dataclass literal: the framework needs no other code.
"""

from dataclasses import replace

from repro.analysis import compile_attributes
from repro.machines import (
    AcceleratorSlot,
    NVLINK2,
    PCIE3_X16,
    POWER9,
    Platform,
    TESLA_K80,
    TESLA_P100,
    TESLA_V100,
)
from repro.polybench import benchmark_by_name
from repro.sim import simulate_cpu, simulate_gpu_kernel, simulate_transfers
from repro.util import render_table

#: A hypothetical next-generation card: more SMs, HBM at 1.6 TB/s.
NEXT_GEN = replace(
    TESLA_V100,
    name="NextGen-X",
    num_sms=108,
    clock_ghz=1.7,
    mem_bandwidth_gbs=1600.0,
    l2_kib=40960,
    l2_bandwidth_gbs=4500.0,
    launch_overhead_us=3.0,
)

PLATFORMS = (
    Platform("P9+K80/PCIe", POWER9, (AcceleratorSlot(TESLA_K80, PCIE3_X16),)),
    Platform("P9+P100/PCIe", POWER9, (AcceleratorSlot(TESLA_P100, PCIE3_X16),)),
    Platform("P9+V100/NVLink", POWER9, (AcceleratorSlot(TESLA_V100, NVLINK2),)),
    Platform("P9+NextGen/NVLink", POWER9, (AcceleratorSlot(NEXT_GEN, NVLINK2),)),
)

KERNELS = ("3dconv", "gemm", "atax", "corr")


def main() -> None:
    rows = []
    for bench_name in KERNELS:
        spec = benchmark_by_name(bench_name)
        env = spec.env("benchmark")
        for region in spec.build():
            attrs = compile_attributes(region)  # static analysis, once
            cells = [region.name]
            for plat in PLATFORMS:
                cpu = simulate_cpu(attrs, plat.host, env)
                gpu = simulate_gpu_kernel(attrs, plat.gpu, env)
                xfer = simulate_transfers(region, plat.bus, env)
                speedup = cpu.seconds / (gpu.seconds + xfer.total_seconds)
                mark = "GPU" if speedup > 1 else "cpu"
                cells.append(f"{speedup:5.2f}x {mark}")
            rows.append(cells)
    print(
        render_table(
            ["kernel"] + [p.name for p in PLATFORMS],
            rows,
            title="Offloading speedup across four GPU generations "
            "(benchmark datasets, 160-thread host)",
        )
    )
    print(
        "\nNote how low-intensity kernels (3dconv) flip from slowdown to "
        "speedup as interconnect\nand memory bandwidth grow, while "
        "cache-friendly hosts claw back the CORR kernels."
    )


if __name__ == "__main__":
    main()
