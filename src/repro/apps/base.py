"""Common machinery for the FPGA-accelerated cloud applications.

Every application provides:

* a :class:`repro.core.role.Role` (demands + role footprint + role LoC),
* a *role pipeline stage* modelling its on-FPGA processing, and
* a workload runner measuring throughput/latency **with** and
  **without** Harmonia's platform-specific layer in the data path
  (Figure 17's comparison).

"Without Harmonia" means the role talks to the vendor IP natively --
no interface wrapper, no Ex-function stage, no parameterised CDC;
"with Harmonia" inserts those fully pipelined stages.  Because every
inserted stage has initiation interval 1, throughput is identical and
only a fixed nanosecond-scale latency is added -- measured, not
assumed.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.rbb.base import Rbb
from repro.core.rbb.cdc import CdcEndpoint, ParamClockDomainCrossing
from repro.core.role import Role
from repro.core.shell import UnifiedShell, build_unified_shell
from repro.core.tailoring import HierarchicalTailor, TailoredShell
from repro.platform.device import FpgaDevice
from repro.runtime import SimContext, current_context
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import PipelineChain, PipelineStage, run_packet_sweep


@dataclass(frozen=True)
class PerformanceSample:
    """One (workload point, throughput, latency) measurement."""

    label: str
    throughput_gbps: float
    latency_us: float

    @property
    def latency_ns(self) -> float:
        return self.latency_us * 1_000.0


class CloudApplication:
    """Base class for the five evaluation applications."""

    #: Subclasses set these.
    name: str = "application"
    role_latency_cycles: int = 40   # the role's own processing depth

    def role(self) -> Role:
        raise NotImplementedError

    # --- deployment ------------------------------------------------------------

    def tailored_shell(self, device: FpgaDevice) -> TailoredShell:
        """This application's role-specific shell on ``device``."""
        unified = build_unified_shell(device, tenants=self.role().demands.tenants)
        return HierarchicalTailor(unified).tailor(self.role())

    # --- data-path construction ---------------------------------------------------

    def _entry_rbb(self, shell: TailoredShell) -> Rbb:
        """The RBB traffic enters through (network for BITW, host for
        look-aside)."""
        if "network" in shell.rbbs:
            return shell.rbbs["network"]
        return shell.rbbs["host"]

    def role_stage(self, rbb: Rbb) -> PipelineStage:
        """The role's processing as a fully pipelined stage.

        The role runs in its own clock domain at the demanded frequency;
        its width is chosen by the S x M = R x U rule so the CDC stays
        lossless.
        """
        from repro.core.rbb.cdc import matching_user_width

        demands = self.role().demands
        user_clock = ClockDomain(f"{self.name}_role", demands.user_clock_mhz)
        width = matching_user_width(
            rbb.instance.clock.freq_mhz, rbb.instance.data_width_bits,
            demands.user_clock_mhz,
        )
        return PipelineStage(
            name=f"{self.name}.role",
            clock=user_clock,
            data_width_bits=width,
            latency_cycles=self.role_latency_cycles,
            initiation_interval=1,
        )

    def link_stage(self, rbb: Rbb) -> PipelineStage:
        """The physical link: line-rate limited with framing overhead.

        An Ethernet cage pays 20 B preamble+IFG per frame; a PCIe link
        pays ~24 B of TLP/DLL framing per transaction.  This is what
        makes small-packet throughput sit below line rate and rise with
        packet size (the Figure 17/18d x-axis behaviour).
        """
        rate_gbps = rbb.instance.performance_gbps
        overhead = 20 if rbb.kind.value == "network" else 24
        link_clock = ClockDomain(f"{rbb.name}_line", rate_gbps * 1_000 / 64)
        return PipelineStage(
            name=f"{rbb.name}.link",
            clock=link_clock,
            data_width_bits=64,
            latency_cycles=8,
            per_transaction_overhead_bytes=overhead,
        )

    def datapath(self, shell: TailoredShell, with_harmonia: bool) -> PipelineChain:
        """Link -> RBB ingress -> (wrapper, Ex-fns, CDC) -> role -> egress."""
        rbb = self._entry_rbb(shell)
        role_stage = self.role_stage(rbb)
        stages: List[PipelineStage] = [
            self.link_stage(rbb),
            rbb.instance.datapath_stage("(ingress)"),
        ]
        if with_harmonia:
            stages.append(rbb.wrapped.wrapper_stage())
            exfn = rbb.ex_function_stage()
            if exfn is not None:
                stages.append(exfn)
            crossing = ParamClockDomainCrossing(
                f"{self.name}.cdc",
                source=CdcEndpoint(rbb.instance.clock, rbb.instance.data_width_bits),
                destination=CdcEndpoint(role_stage.clock, role_stage.data_width_bits),
            )
            crossing.require_lossless()
            stages.append(crossing.stage())
        stages.append(role_stage)
        stages.append(rbb.instance.datapath_stage("(egress)"))
        name = f"{self.name}.{'harmonia' if with_harmonia else 'native'}"
        return PipelineChain(name, stages)

    # --- measurement ----------------------------------------------------------------

    #: End-to-end deployment path outside the FPGA: host stack, NIC/PCIe
    #: round trip, and a ToR hop.  Identical with and without Harmonia;
    #: it is the microsecond baseline against which the wrapper's
    #: nanosecond addition is negligible (the paper's <1% claim).
    PATH_LATENCY_US = 2.0

    def sample_for_point(
        self,
        packet_size_bytes: int,
        throughput_bps: float,
        mean_latency_ns: float,
        include_path_latency: bool = True,
    ) -> PerformanceSample:
        """Fold one raw sweep-point measurement into a Figure-17 sample.

        This is the single place the path-latency constant is applied;
        :meth:`measure` and the parallel sweep runner
        (:mod:`repro.runtime.sweep`) both go through it, so their samples
        are identical by construction.
        """
        path_us = self.PATH_LATENCY_US if include_path_latency else 0.0
        return PerformanceSample(
            label=f"{packet_size_bytes}B",
            throughput_gbps=throughput_bps / 1e9,
            latency_us=mean_latency_ns / 1_000.0 + path_us,
        )

    def measure(
        self,
        device: FpgaDevice,
        packet_sizes: Optional[Tuple[int, ...]] = None,
        packets_per_point: int = 2_000,
        with_harmonia: bool = True,
        include_path_latency: bool = True,
        context: Optional[SimContext] = None,
    ) -> List[PerformanceSample]:
        """Throughput/latency sweep over packet sizes (Figure 17a-c).

        Run under a :class:`~repro.runtime.SimContext` -- passed
        explicitly or active ambiently -- the sweep becomes replayable:
        shell construction and every sweep point land on the context's
        trace bus (per-stage spans through link -> RBB -> wrapper/CDC ->
        role) and the per-point results in its metrics registry under
        ``app.<name>``.  With no context the sweep is untraced and
        byte-for-byte the old behaviour.  ``packet_sizes`` defaults to
        the paper sweep, :data:`repro.scenario.DEFAULT_PACKET_SIZES`.
        """
        if packet_sizes is None:
            from repro.scenario.spec import DEFAULT_PACKET_SIZES

            packet_sizes = DEFAULT_PACKET_SIZES
        ctx = context if context is not None else current_context()
        if ctx is not None and current_context() is not ctx:
            with ctx:
                return self._measure_in_context(
                    ctx, device, packet_sizes, packets_per_point,
                    with_harmonia, include_path_latency,
                )
        return self._measure_in_context(
            ctx, device, packet_sizes, packets_per_point, with_harmonia,
            include_path_latency,
        )

    def _measure_in_context(
        self,
        ctx: Optional[SimContext],
        device: FpgaDevice,
        packet_sizes: Tuple[int, ...],
        packets_per_point: int,
        with_harmonia: bool,
        include_path_latency: bool,
    ) -> List[PerformanceSample]:
        variant = "harmonia" if with_harmonia else "native"
        sweep_span = ns = None
        if ctx is not None:
            sweep_span = ctx.trace.begin(
                f"app.{self.name}.measure", ts_ps=0, device=device.name,
                variant=variant,
            )
            ns = ctx.metrics.namespace(f"app.{self.name}.{variant}")
        shell = self.tailored_shell(device)
        samples: List[PerformanceSample] = []
        for size in packet_sizes:
            chain = self.datapath(shell, with_harmonia)
            throughput_bps, latency_ns = run_packet_sweep(
                chain, packet_size_bytes=size, packet_count=packets_per_point,
                context=ctx,
            )
            sample = self.sample_for_point(
                size, throughput_bps, latency_ns,
                include_path_latency=include_path_latency,
            )
            samples.append(sample)
            if ns is not None:
                point = ns.namespace(sample.label)
                point.set_gauge("throughput_gbps", sample.throughput_gbps)
                point.set_gauge("latency_us", sample.latency_us)
        if ctx is not None:
            ctx.trace.end(sweep_span, points=len(samples))
        return samples

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
