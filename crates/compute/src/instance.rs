//! The instance-type catalog.
//!
//! Encodes the paper's Table 1 (EC2) and Table 2 (Azure), plus the
//! bare-metal nodes of the clusters used for the Hadoop and DryadLINQ
//! baselines. Memory bandwidth is not in the paper's tables — it reports
//! only that GTM is memory-bandwidth-bound and which platforms suffered —
//! so the per-type `mem_bandwidth_gbps` values here are plausible 2010
//! figures chosen to reproduce the *ordering* the paper observed (fewer
//! cores per memory controller ⇒ less contention ⇒ better GTM efficiency).

use ppc_core::money::Usd;

/// Who operates the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    Aws,
    Azure,
    /// Owned bare metal (the paper's internal clusters).
    BareMetal,
}

/// Guest operating system; the paper notes Cap3 runs ~12.5% faster on
/// Windows, so the calibrated models need to know which they are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsPlatform {
    Linux,
    Windows,
}

/// One machine type a framework can lease (or own).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    /// Catalog name ("HCXL", "azure-small", "bare-32x8", ...).
    pub name: &'static str,
    pub provider: Provider,
    pub platform: OsPlatform,
    /// Physical CPU cores available to the guest.
    pub cores: usize,
    /// Core clock, GHz (the paper's approximations).
    pub clock_ghz: f64,
    /// EC2 compute units, informational (0 where not applicable).
    pub ecu: f64,
    /// Guest RAM, bytes.
    pub memory_bytes: u64,
    /// Aggregate memory bandwidth shared by all cores, bytes/second.
    pub mem_bandwidth_bytes_per_s: f64,
    /// Local/ephemeral disk, bytes.
    pub local_disk_bytes: u64,
    /// Hourly lease price (zero for owned hardware — its cost model is
    /// `billing::OwnedClusterCost`).
    pub cost_per_hour: Usd,
}

const GB: u64 = 1_000_000_000;
const GIB: u64 = 1 << 30;

// ---- Table 1: selected EC2 instance types -----------------------------------

/// EC2 Large: 7.5 GB, 4 ECU, 2 × ~2 GHz, $0.34/h.
pub const EC2_LARGE: InstanceType = InstanceType {
    name: "L",
    provider: Provider::Aws,
    platform: OsPlatform::Linux,
    cores: 2,
    clock_ghz: 2.0,
    ecu: 4.0,
    memory_bytes: 7_500 * GB / 1000,
    mem_bandwidth_bytes_per_s: 6.0e9,
    local_disk_bytes: 850 * GIB,
    cost_per_hour: Usd::cents(34),
};

/// EC2 Extra-Large: 15 GB, 8 ECU, 4 × ~2 GHz, $0.68/h.
pub const EC2_XLARGE: InstanceType = InstanceType {
    name: "XL",
    provider: Provider::Aws,
    platform: OsPlatform::Linux,
    cores: 4,
    clock_ghz: 2.0,
    ecu: 8.0,
    memory_bytes: 15 * GB,
    mem_bandwidth_bytes_per_s: 9.0e9,
    local_disk_bytes: 1_690 * GIB,
    cost_per_hour: Usd::cents(68),
};

/// EC2 High-CPU-Extra-Large: 7 GB, 20 ECU, 8 × ~2.5 GHz, $0.68/h — the
/// paper's repeated cost-effectiveness winner.
pub const EC2_HCXL: InstanceType = InstanceType {
    name: "HCXL",
    provider: Provider::Aws,
    platform: OsPlatform::Linux,
    cores: 8,
    clock_ghz: 2.5,
    ecu: 20.0,
    memory_bytes: 7 * GB,
    mem_bandwidth_bytes_per_s: 10.0e9,
    local_disk_bytes: 1_690 * GIB,
    cost_per_hour: Usd::cents(68),
};

/// EC2 High-Memory-Quadruple-Extra-Large: 68.4 GB, 26 ECU, 8 × ~3.25 GHz,
/// $2.00/h — fastest, rarely cheapest.
pub const EC2_HM4XL: InstanceType = InstanceType {
    name: "HM4XL",
    provider: Provider::Aws,
    platform: OsPlatform::Linux,
    cores: 8,
    clock_ghz: 3.25,
    ecu: 26.0,
    memory_bytes: 68_400 * GB / 1000,
    mem_bandwidth_bytes_per_s: 20.0e9,
    local_disk_bytes: 1_690 * GIB,
    cost_per_hour: Usd::dollars(2),
};

// ---- Table 2: Azure instance types ------------------------------------------
// Azure's per-core clock was speculated at 1.5–1.7 GHz, but the paper
// measured "8 Azure Small ≈ 1 HCXL (20 ECU)" on Cap3, so for modeling we
// give Azure cores HCXL-like effective throughput (2.5 GHz equivalent)
// before the Windows factor — this is the calibration §6 of DESIGN.md pins.

const AZURE_CLOCK_GHZ: f64 = 2.5;

/// Azure Small: 1 core, 1.7 GB, 250 GB disk, $0.12/h.
pub const AZURE_SMALL: InstanceType = InstanceType {
    name: "azure-small",
    provider: Provider::Azure,
    platform: OsPlatform::Windows,
    cores: 1,
    clock_ghz: AZURE_CLOCK_GHZ,
    ecu: 0.0,
    memory_bytes: 1_700 * GB / 1000,
    mem_bandwidth_bytes_per_s: 4.0e9,
    local_disk_bytes: 250 * GB,
    cost_per_hour: Usd::cents(12),
};

/// Azure Medium: 2 cores, 3.5 GB, 500 GB disk, $0.24/h.
pub const AZURE_MEDIUM: InstanceType = InstanceType {
    name: "azure-medium",
    provider: Provider::Azure,
    platform: OsPlatform::Windows,
    cores: 2,
    clock_ghz: AZURE_CLOCK_GHZ,
    ecu: 0.0,
    memory_bytes: 3_500 * GB / 1000,
    mem_bandwidth_bytes_per_s: 6.0e9,
    local_disk_bytes: 500 * GB,
    cost_per_hour: Usd::cents(24),
};

/// Azure Large: 4 cores, 7 GB, 1000 GB disk, $0.48/h.
pub const AZURE_LARGE: InstanceType = InstanceType {
    name: "azure-large",
    provider: Provider::Azure,
    platform: OsPlatform::Windows,
    cores: 4,
    clock_ghz: AZURE_CLOCK_GHZ,
    ecu: 0.0,
    memory_bytes: 7 * GB,
    mem_bandwidth_bytes_per_s: 9.0e9,
    local_disk_bytes: 1_000 * GB,
    cost_per_hour: Usd::cents(48),
};

/// Azure Extra-Large: 8 cores, 15 GB, 2000 GB disk, $0.96/h.
pub const AZURE_XLARGE: InstanceType = InstanceType {
    name: "azure-xlarge",
    provider: Provider::Azure,
    platform: OsPlatform::Windows,
    cores: 8,
    clock_ghz: AZURE_CLOCK_GHZ,
    ecu: 0.0,
    memory_bytes: 15 * GB,
    mem_bandwidth_bytes_per_s: 12.0e9,
    local_disk_bytes: 2_000 * GB,
    cost_per_hour: Usd::cents(96),
};

// ---- Bare-metal baseline nodes ----------------------------------------------

/// Cap3 baseline cluster node: 32 nodes × 8 cores (2.5 GHz), 16 GB (§4.2).
/// Used for both the Hadoop (Linux) and DryadLINQ (Windows) Cap3 runs; the
/// DryadLINQ variant is [`BARE_CAP3_WIN`].
pub const BARE_CAP3: InstanceType = InstanceType {
    name: "bare-8x2.5",
    provider: Provider::BareMetal,
    platform: OsPlatform::Linux,
    cores: 8,
    clock_ghz: 2.5,
    ecu: 0.0,
    memory_bytes: 16 * GIB,
    mem_bandwidth_bytes_per_s: 12.0e9,
    local_disk_bytes: 500 * GB,
    cost_per_hour: Usd::ZERO,
};

/// Windows twin of [`BARE_CAP3`] for the DryadLINQ baseline.
pub const BARE_CAP3_WIN: InstanceType = InstanceType {
    name: "bare-8x2.5-win",
    platform: OsPlatform::Windows,
    ..BARE_CAP3
};

/// iDataplex node for Hadoop-BLAST: 2 × 4-core Xeon E5410 2.33 GHz, 16 GB (§5.2).
pub const BARE_IDATAPLEX: InstanceType = InstanceType {
    name: "bare-idataplex",
    provider: Provider::BareMetal,
    platform: OsPlatform::Linux,
    cores: 8,
    clock_ghz: 2.33,
    ecu: 0.0,
    memory_bytes: 16 * GIB,
    mem_bandwidth_bytes_per_s: 12.0e9,
    local_disk_bytes: 500 * GB,
    cost_per_hour: Usd::ZERO,
};

/// Windows HPC node for DryadLINQ-BLAST / GTM: 16 × 2.3 GHz Opteron, 16 GB
/// (§5.2, §6.2) — many cores on one memory system, the paper's worst GTM
/// contention case.
pub const BARE_HPC16: InstanceType = InstanceType {
    name: "bare-hpc16",
    provider: Provider::BareMetal,
    platform: OsPlatform::Windows,
    cores: 16,
    clock_ghz: 2.3,
    ecu: 0.0,
    memory_bytes: 16 * GIB,
    mem_bandwidth_bytes_per_s: 12.0e9,
    local_disk_bytes: 500 * GB,
    cost_per_hour: Usd::ZERO,
};

/// Hadoop GTM node: 24 × 2.4 GHz Xeon, 48 GB, configured to use 8 cores (§6.2).
pub const BARE_XEON24: InstanceType = InstanceType {
    name: "bare-xeon24",
    provider: Provider::BareMetal,
    platform: OsPlatform::Linux,
    cores: 24,
    clock_ghz: 2.4,
    ecu: 0.0,
    memory_bytes: 48 * GIB,
    mem_bandwidth_bytes_per_s: 25.0e9,
    local_disk_bytes: 1_000 * GB,
    cost_per_hour: Usd::ZERO,
};

/// The EC2 types of Table 1, in the paper's order.
pub const EC2_TYPES: [InstanceType; 4] = [EC2_LARGE, EC2_XLARGE, EC2_HCXL, EC2_HM4XL];

/// The Azure types of Table 2, in the paper's order.
pub const AZURE_TYPES: [InstanceType; 4] = [AZURE_SMALL, AZURE_MEDIUM, AZURE_LARGE, AZURE_XLARGE];

impl InstanceType {
    /// Look up a type by catalog name.
    pub fn by_name(name: &str) -> Option<InstanceType> {
        EC2_TYPES
            .iter()
            .chain(AZURE_TYPES.iter())
            .chain(
                [
                    BARE_CAP3,
                    BARE_CAP3_WIN,
                    BARE_IDATAPLEX,
                    BARE_HPC16,
                    BARE_XEON24,
                ]
                .iter(),
            )
            .find(|t| t.name == name)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prices() {
        assert_eq!(EC2_LARGE.cost_per_hour, Usd::cents(34));
        assert_eq!(EC2_XLARGE.cost_per_hour, Usd::cents(68));
        assert_eq!(EC2_HCXL.cost_per_hour, Usd::cents(68));
        assert_eq!(EC2_HM4XL.cost_per_hour, Usd::dollars(2));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the catalog under test
    fn table1_shapes() {
        // "HCXL costs the same as XL but offers greater CPU power and less
        // memory" (§2.1.1).
        assert_eq!(EC2_HCXL.cost_per_hour, EC2_XLARGE.cost_per_hour);
        assert!(EC2_HCXL.ecu > EC2_XLARGE.ecu);
        assert!(EC2_HCXL.memory_bytes < EC2_XLARGE.memory_bytes);
        assert_eq!(EC2_HCXL.cores, 8);
        assert_eq!(EC2_HM4XL.cores, 8);
        assert!(EC2_HM4XL.clock_ghz > EC2_HCXL.clock_ghz);
    }

    #[test]
    fn table2_linear_scaling() {
        // "Azure instance type configurations and the cost scales up
        // linearly from Small to Extra-Large" (§2.1.2).
        for (i, t) in AZURE_TYPES.iter().enumerate() {
            let mult = 1 << i;
            assert_eq!(t.cores, mult, "{}", t.name);
            assert_eq!(t.cost_per_hour, Usd::cents(12) * mult as i64, "{}", t.name);
        }
    }

    #[test]
    fn hcxl_has_least_memory_per_core() {
        // "<1 GB per core" vs "3.75 GB per core" for L/XL (§5.1).
        let per_core = |t: InstanceType| t.memory_bytes / t.cores as u64;
        assert!(per_core(EC2_HCXL) < 1 << 30);
        assert!(per_core(EC2_LARGE) > 3 * (1 << 30));
        assert!(per_core(EC2_XLARGE) > 3 * (1 << 30));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(InstanceType::by_name("HCXL").unwrap().cores, 8);
        assert_eq!(InstanceType::by_name("azure-small").unwrap().cores, 1);
        assert!(InstanceType::by_name("m5.24xlarge").is_none());
    }

    #[test]
    fn cost_per_core_hour_ranks_hcxl_cheapest_ec2() {
        let mut by_core_cost = EC2_TYPES;
        by_core_cost.sort_by_key(|a| a.cost_per_hour.scale(1.0 / a.cores as f64));
        assert_eq!(by_core_cost[0].name, "HCXL");
    }

    #[test]
    fn bandwidth_per_core_ordering_for_gtm() {
        // Azure Small (dedicated) > HM4XL > HCXL > bare-hpc16 (16-way shared):
        // the contention ordering behind the paper's GTM efficiency ranking.
        let per_core = |t: &InstanceType| t.mem_bandwidth_bytes_per_s / t.cores as f64;
        assert!(per_core(&AZURE_SMALL) > per_core(&EC2_HM4XL));
        assert!(per_core(&EC2_HM4XL) > per_core(&EC2_HCXL));
        assert!(per_core(&EC2_HCXL) > per_core(&BARE_HPC16));
    }
}
