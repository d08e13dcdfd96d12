"""The Program Attribute Database (Figure 2).

At "compile" time, the framework stores the static products of analysis for
every outlined target region: the symbolic IPDA strides, the instruction
loadout skeleton, the symbolic parallel-iteration count, and symbolic
transfer sizes; the MCA lowering of the loop nest is added per CPU on
first use.  At execution time, the OpenMP runtime queries the entry by
region key, binds the missing runtime values, and hands completed model
inputs to the performance models.  The record is the only owner of this
analysis: models and simulators take the record, never re-analysing the
bare region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..ir import Region, validate_region
from ..ir.dataflow import RegionDataflow, analyze_transfers
from ..ir.printer import region_to_text
from ..ipda import BoundIPDA, IPDAResult, analyze_region
from ..machines import CPUDescriptor
from ..mca.lowering import LoweredLevel, lower_region, lowering_key
from ..obs.tracer import current_tracer
from ..parallel.cache import current_cache
from ..symbolic import Expr
from .features import AccessWeight, InstructionLoadout, extract_loadout
from .tripcount import PAPER_LOOP_TRIPS, nest_trips, paper_trip_abstraction

__all__ = [
    "RegionAttributes",
    "BoundAttributes",
    "ProgramAttributeDatabase",
    "compile_attributes",
]


@dataclass(frozen=True)
class RegionAttributes:
    """Compile-time record for one target region.

    The only owner of the region's static analysis: models and simulators
    read ``ipda`` and :meth:`lowering` from here instead of re-deriving
    them from the bare region.
    """

    region: Region
    ipda: IPDAResult
    static_loadout: InstructionLoadout  # under the 128-iteration abstraction
    parallel_iterations: Expr
    required_symbols: frozenset[str]
    #: array liveness / transfer-direction analysis (ir.dataflow); only
    #: consulted when ``transfer_mode == "inferred"``
    dataflow: RegionDataflow
    #: "declared" prices transfers from the map clauses (the default,
    #: bit-identical to the historical behaviour); "inferred" prices them
    #: from the dataflow analysis (drops provably wasted directions)
    transfer_mode: str = "declared"
    #: MCA lowerings built on first request, keyed by
    #: ``(lowering_key(cpu), vectorize)``; consumers only read the trees
    _lowerings: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lowering(
        self, cpu: CPUDescriptor, *, vectorize: bool = True
    ) -> LoweredLevel:
        """The region's MCA level tree for ``cpu``, lowered once per key.

        CPUs that agree on everything lowering reads share one tree, so
        descriptor variants (drifted clocks, renamed copies) do not lower
        again, while a variant that lowers differently gets its own.
        """
        key = (lowering_key(cpu), vectorize)
        root = self._lowerings.get(key)
        if root is None:
            root = self._lowerings[key] = lower_region(
                self.region, cpu, vectorize=vectorize
            )
        return root

    def bind(self, env: Mapping[str, int]) -> "BoundAttributes":
        """Complete the record with runtime values (Figure 2, runtime side).

        ``env`` binds region parameters (array extents / trip counts).
        Missing *inner* trip counts are tolerated — the paper's abstraction
        covers them — but the parallel iteration count must resolve.
        """
        missing = self.parallel_iterations.free_symbols() - set(env)
        if missing:
            raise KeyError(
                f"region {self.region.name!r}: parallel iteration count needs "
                f"unbound symbols {sorted(missing)}"
            )
        runtime_loadout = extract_loadout(
            self.region, nest_trips(self.region, env, default=PAPER_LOOP_TRIPS)
        )
        bound_ipda = self.ipda.bind(env)
        if self.transfer_mode == "inferred":
            to_dev, to_host = self.dataflow.transfer_bytes(env)
        else:
            to_dev, to_host = self.region.transfer_bytes(env)
        return BoundAttributes(
            attributes=self,
            env=dict(env),
            parallel_iterations=int(self.parallel_iterations.evaluate(env)),
            loadout=runtime_loadout,
            ipda=bound_ipda,
            bytes_to_device=to_dev,
            bytes_to_host=to_host,
            transfer_mode=self.transfer_mode,
        )


@dataclass(frozen=True)
class BoundAttributes:
    """Runtime-completed model inputs for one region instance."""

    attributes: RegionAttributes
    env: Mapping[str, int]
    parallel_iterations: int
    loadout: InstructionLoadout
    ipda: BoundIPDA
    bytes_to_device: int
    bytes_to_host: int
    #: where the byte counts came from: "declared" map clauses or the
    #: "inferred" dataflow directions
    transfer_mode: str = "declared"

    @property
    def region(self) -> Region:
        return self.attributes.region


def _cached_static_loadout(region: Region) -> InstructionLoadout:
    """Memoize the static (128-iteration abstraction) loadout.

    Keyed on the printed canonical region text alone — the static
    loadout depends on no machine model and no runtime binding.  Runtime
    loadouts (``RegionAttributes.bind``) are *not* cached: they are
    cheap and environment-dependent.
    """
    cache = current_cache()
    if not cache.enabled:
        return extract_loadout(region, paper_trip_abstraction)
    entry = cache.get_or_compute(
        "analysis.static_loadout",
        region_to_text(region),
        None,
        lambda: _encode_loadout(
            extract_loadout(region, paper_trip_abstraction)
        ),
        validate=_valid_loadout_entry,
    )
    return _decode_loadout(entry)


_LOADOUT_SCALARS = (
    "region_name",
    "fp_insts",
    "int_insts",
    "sfu_insts",
    "load_insts",
    "store_insts",
    "branch_insts",
)


def _encode_loadout(loadout: InstructionLoadout) -> dict:
    entry = {f: getattr(loadout, f) for f in _LOADOUT_SCALARS}
    entry["access_weights"] = [
        [w.access_index, w.array_name, w.is_store, w.weight, w.elem_bytes]
        for w in loadout.access_weights
    ]
    return entry


def _valid_loadout_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and all(f in entry for f in _LOADOUT_SCALARS)
        and isinstance(entry.get("access_weights"), list)
        and all(
            isinstance(w, list) and len(w) == 5
            for w in entry["access_weights"]
        )
    )


def _decode_loadout(entry: dict) -> InstructionLoadout:
    return InstructionLoadout(
        region_name=entry["region_name"],
        fp_insts=entry["fp_insts"],
        int_insts=entry["int_insts"],
        sfu_insts=entry["sfu_insts"],
        load_insts=entry["load_insts"],
        store_insts=entry["store_insts"],
        access_weights=tuple(
            AccessWeight(idx, name, bool(store), weight, bytes_)
            for idx, name, store, weight, bytes_ in entry["access_weights"]
        ),
        branch_insts=entry["branch_insts"],
    )


def compile_attributes(
    region: Region, *, transfer_mode: str = "declared"
) -> RegionAttributes:
    """Run all static analyses on a region: its compile-time record.

    :meth:`ProgramAttributeDatabase.compile_region` stores what this
    returns; a caller that holds only a region (a microbenchmark, a test)
    builds one record here and passes it to the models and simulators.
    """
    tracer = current_tracer()
    with tracer.span("compile", region=region.name):
        validate_region(region)
        with tracer.span("analyse", region=region.name) as sp:
            ipda = analyze_region(region)
            static_loadout = _cached_static_loadout(region)
            if tracer.enabled:
                sp.set("accesses", len(ipda.accesses))
        return RegionAttributes(
            region=region,
            ipda=ipda,
            static_loadout=static_loadout,
            parallel_iterations=region.parallel_iterations(),
            required_symbols=region.free_symbols(),
            dataflow=analyze_transfers(region),
            transfer_mode=transfer_mode,
        )


class ProgramAttributeDatabase:
    """Keyed store of compile-time attributes, queried by the runtime.

    Keys are region names (standing in for the paper's "program and
    location" index).

    ``inferred_transfers=True`` opts the database into pricing transfers
    from the array-liveness dataflow analysis instead of the declared map
    clauses: every record compiled here is stamped ``transfer_mode=
    "inferred"`` and ``bind`` drops the provably wasted directions.  The
    default (off) is bit-identical to the historical behaviour.
    """

    def __init__(self, *, inferred_transfers: bool = False) -> None:
        self._entries: dict[str, RegionAttributes] = {}
        self.inferred_transfers = inferred_transfers

    def compile_region(self, region: Region) -> RegionAttributes:
        """Run all static analyses on a region and store the record."""
        if region.name in self._entries:
            raise KeyError(f"region {region.name!r} already compiled")
        attrs = compile_attributes(
            region,
            transfer_mode="inferred" if self.inferred_transfers else "declared",
        )
        self._entries[region.name] = attrs
        return attrs

    def lookup(self, region_name: str) -> RegionAttributes:
        """Fetch the compile-time record for a region; raises when absent."""
        try:
            return self._entries[region_name]
        except KeyError as exc:
            raise KeyError(
                f"no compiled attributes for region {region_name!r}"
            ) from exc

    def __contains__(self, region_name: str) -> bool:
        return region_name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def region_names(self) -> list[str]:
        return sorted(self._entries)
