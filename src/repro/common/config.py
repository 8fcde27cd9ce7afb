"""Simulation configuration (the paper's Table 4).

The default :class:`GpuConfig` mirrors the configuration the paper simulates:
8 compute units at 800 MHz, 4 SIMD units each, 40 wavefront slots of 64
lanes, a 2,048-entry vector register file and an 800-entry scalar register
file per CU, a 16 kB fully-associative write-through L1 data cache per CU,
a 32 kB 8-way L1 instruction cache and 512 kB 16-way L2 shared per 4-CU
cluster, and a 32-channel DDR3-style DRAM model at 500 MHz.

Tests use :func:`small_config` (2 CUs) where the full machine is overkill.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Mapping

from .errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 16  # 0 means fully associative
    hit_latency: int = 4
    write_through: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ConfigError(f"cache size {self.size_bytes} not a multiple of line {self.line_bytes}")
        n_lines = self.size_bytes // self.line_bytes
        assoc = self.associativity or n_lines
        if n_lines % assoc:
            raise ConfigError(f"{n_lines} lines not divisible by associativity {assoc}")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        assoc = self.associativity or self.num_lines
        return self.num_lines // assoc


@dataclass(frozen=True)
class DramConfig:
    """A simple channel-parallel DDR3-style DRAM model."""

    channels: int = 32
    clock_mhz: int = 500
    base_latency_cycles: int = 160     # in GPU cycles, row activation + CAS
    cycles_per_burst: int = 4          # channel occupancy per 64B line


@dataclass(frozen=True)
class CuConfig:
    """One compute unit (paper Figure 2, Table 4)."""

    num_simds: int = 4
    simd_width: int = 16
    wavefront_size: int = 64
    max_wavefronts: int = 40           # WF slots per CU, oldest-job-first
    vrf_entries: int = 2048            # 32-bit vector registers per CU pool
    srf_entries: int = 800             # 32-bit scalar registers per CU pool
    vrf_banks: int = 4                 # banks per SIMD's VRF slice
    srf_banks: int = 2
    lds_bytes: int = 64 * 1024
    ib_entries: int = 12               # per-WF instruction buffer slots
    fetch_width_bytes: int = 32        # bytes fetched from L1I per access
    valu_issue_cycles: int = 4         # 64 lanes over 16-lane SIMD
    salu_latency: int = 1
    lds_latency: int = 24
    max_outstanding_vmem: int = 16

    def __post_init__(self) -> None:
        if self.wavefront_size % self.simd_width:
            raise ConfigError("wavefront size must be a multiple of the SIMD width")
        if self.max_wavefronts % self.num_simds:
            raise ConfigError("WF slots must divide evenly across SIMD units")

    @property
    def wavefronts_per_simd(self) -> int:
        return self.max_wavefronts // self.num_simds


@dataclass(frozen=True)
class GpuConfig:
    """Whole-GPU configuration (Table 4)."""

    num_cus: int = 8
    cus_per_cluster: int = 4           # share L1I, scalar cache, and L2
    clock_mhz: int = 800
    cu: CuConfig = field(default_factory=CuConfig)
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, associativity=0, hit_latency=8)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=8, hit_latency=4)
    )
    scalar_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, associativity=8, hit_latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=512 * 1024, associativity=16, hit_latency=32)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    deadlock_cycles: int = 4_000_000   # abort if no retirement for this long
    engine: str = "auto"               # trace-walk engine: scalar|vector|auto

    def __post_init__(self) -> None:
        if self.num_cus <= 0:
            raise ConfigError("need at least one CU")
        if self.num_cus % self.cus_per_cluster and self.num_cus > self.cus_per_cluster:
            raise ConfigError("CU count must be a multiple of the cluster size")
        if self.engine not in ("auto", "scalar", "vector"):
            raise ConfigError(
                f"unknown engine {self.engine!r}: pick auto, scalar, or vector"
            )

    @property
    def num_clusters(self) -> int:
        return max(1, self.num_cus // self.cus_per_cluster)

    def scaled(self, **overrides: object) -> "GpuConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def with_overrides(self, overrides: "Mapping[str, object]") -> "GpuConfig":
        """Return a copy with dotted-path fields replaced.

        Paths name nested dataclass fields (``"cu.vrf_banks"``,
        ``"l1i.size_bytes"``, or top-level ``"num_cus"``); every nested
        ``replace`` re-runs the sub-config's ``__post_init__``, so an
        invalid geometry surfaces here as a :class:`ConfigError` naming
        the offending path — not later inside the timing model.

        >>> paper_config().with_overrides({"cu.vrf_banks": 8,
        ...                                "l1i.size_bytes": 65536})
        """
        config = self
        for path, value in overrides.items():
            parts = path.split(".")
            if not all(parts):
                raise ConfigError(f"malformed config path {path!r}")
            config = _replace_path(config, parts, value, path)
        return config

    def to_dict(self) -> "dict[str, object]":
        """The full nested configuration as plain JSON-friendly values."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: "Mapping[str, object]") -> "GpuConfig":
        """Rebuild a config from :meth:`to_dict` output (wire inverse).

        Every nested dataclass re-runs its ``__post_init__``, so a
        hand-edited or hostile payload fails with a :class:`ConfigError`
        naming the problem instead of reaching the timing model.  Unknown
        keys are rejected — a misspelled field must not silently fall
        back to its default.
        """
        nested = {
            "cu": CuConfig,
            "l1d": CacheConfig,
            "l1i": CacheConfig,
            "scalar_cache": CacheConfig,
            "l2": CacheConfig,
            "dram": DramConfig,
        }
        kwargs: "dict[str, object]" = {}
        for key, value in payload.items():
            sub = nested.get(key)
            if sub is not None:
                if not isinstance(value, Mapping):
                    raise ConfigError(
                        f"config field {key!r} must be an object, "
                        f"got {type(value).__name__}"
                    )
                kwargs[key] = _build_sub(sub, key, value)
            else:
                kwargs[key] = value
        try:
            return cls(**kwargs)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigError(f"bad config payload: {exc}") from exc

    def fingerprint(self) -> str:
        """A short, stable content hash of every configuration field.

        Two configs hash equal iff every field (including nested cache,
        CU, and DRAM sub-configs) is equal, so the fingerprint is safe to
        use as a cache key component: any parameter change — CU count,
        cache geometry, DRAM timing — yields a different fingerprint.

        Memoized on the (frozen) instance: disk-cache lookups and sweep
        point dedup recompute it constantly, and the fields can never
        change under the memo.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = _config_hash(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def functional_fingerprint(self) -> str:
        """Hash of the config fields the *functional* layer can observe.

        The dynamic instruction stream — which instructions execute, the
        EXEC masks, memory addresses, branch targets — depends on the
        program, its input, and the lane geometry, but **not** on the
        timing axes (cache sizes, bank counts, latencies, CU count:
        workgroups are placed strictly in order, so even wavefront
        numbering is timing-invariant).  Two configs with equal
        functional fingerprints therefore produce identical streams, and
        a trace captured under one replays exactly under the other.
        This is the trace store's key half.  The replay ``engine`` is a
        pure consumer-side choice, so it lives on the timing side and a
        single captured trace serves both the scalar and vector engines.
        """
        cached = self.__dict__.get("_functional_fingerprint")
        if cached is None:
            cached = _config_hash({
                "cu.wavefront_size": self.cu.wavefront_size,
                "cu.simd_width": self.cu.simd_width,
            })
            object.__setattr__(self, "_functional_fingerprint", cached)
        return cached

    def timing_fingerprint(self) -> str:
        """Hash of everything :meth:`functional_fingerprint` excludes.

        Complement of the functional half: two configs that differ only
        in timing fingerprint share one functional trace but are distinct
        timing experiments (the interesting case for sweeps — capture
        once, replay per timing point).
        """
        cached = self.__dict__.get("_timing_fingerprint")
        if cached is None:
            timing_only = self.to_dict()
            cu = dict(timing_only["cu"])  # type: ignore[arg-type]
            cu.pop("wavefront_size", None)
            cu.pop("simd_width", None)
            timing_only["cu"] = cu
            cached = _config_hash(timing_only)
            object.__setattr__(self, "_timing_fingerprint", cached)
        return cached


def _build_sub(kind: type, name: str, payload: "Mapping[str, object]") -> object:
    try:
        return kind(**payload)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"bad config field {name!r}: {exc}") from exc


def _config_hash(payload: "dict[str, object]") -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _replace_path(obj: object, parts: "list[str]", value: object,
                  full_path: str) -> object:
    """Rebuild ``obj`` with the field at ``parts`` replaced by ``value``,
    re-validating every dataclass level on the way back up."""
    name = parts[0]
    if not is_dataclass(obj) or name not in {f.name for f in fields(obj)}:
        kind = type(obj).__name__
        known = sorted(f.name for f in fields(obj)) if is_dataclass(obj) else []
        hint = f"; {kind} fields: {', '.join(known)}" if known else ""
        raise ConfigError(
            f"unknown config path {full_path!r}: {kind} has no field "
            f"{name!r}{hint}"
        )
    if len(parts) == 1:
        new_value = value
    else:
        new_value = _replace_path(getattr(obj, name), parts[1:], value,
                                  full_path)
    try:
        return replace(obj, **{name: new_value})
    except ConfigError as exc:
        raise ConfigError(f"invalid override {full_path}={value!r}: {exc}") from exc


def paper_config() -> GpuConfig:
    """The configuration from Table 4 of the paper."""
    return GpuConfig()


def small_config(num_cus: int = 2) -> GpuConfig:
    """A reduced configuration for unit tests: fewer CUs, same per-CU shape."""
    if num_cus < 1:
        raise ConfigError("need at least one CU")
    return GpuConfig(num_cus=num_cus, cus_per_cluster=min(num_cus, 4))
