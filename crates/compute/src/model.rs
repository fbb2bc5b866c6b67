//! Service-time model: how long one task takes on one instance type.
//!
//! The paper's instance-type studies hinge on three machine effects, all
//! modeled here (DESIGN.md §3):
//!
//! 1. **Clock scaling** — CPU-bound work (Cap3) runs at the ratio of clocks;
//!    HM4XL (3.25 GHz) beats HCXL (2.5 GHz) beats L/XL (2.0 GHz). The
//!    ~12.5% Windows speedup for Cap3 is an application property passed in
//!    via [`AppModel::windows_speedup`].
//! 2. **Memory-bandwidth contention** — GTM Interpolation streams large
//!    matrices; with `k` workers sharing a node, each sees `B/k` bandwidth,
//!    and the task takes `max(t_cpu, t_mem)`. Platforms with fewer cores
//!    per memory system win (Azure Small best, 16-core HPC nodes worst).
//! 3. **Memory-capacity pressure** — BLAST wants the whole NR database
//!    resident *per node* (it is shared read-only between workers). When
//!    private + shared working sets overflow the node, the overflow
//!    fraction is re-read from disk each pass, adding I/O time.

use crate::instance::{InstanceType, OsPlatform};
use ppc_core::task::{ResourceProfile, REFERENCE_CLOCK_GHZ};

/// Application-level knobs for the service-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppModel {
    /// Multiplier on CPU speed when running on Windows (Cap3: 1.125 —
    /// "the Cap3 program performs ~12.5% faster on Windows", §4.2).
    pub windows_speedup: f64,
    /// Local-disk bandwidth used to price memory-overflow re-reads, B/s.
    pub disk_bandwidth_bytes_per_s: f64,
    /// How many times the overflowed shared working set is effectively
    /// re-scanned per task (1.0 for a single-pass scan like BLAST).
    pub overflow_rescans: f64,
}

impl AppModel {
    /// CPU-bound defaults (no Windows advantage, 2010 SATA disk).
    pub const DEFAULT: AppModel = AppModel {
        windows_speedup: 1.0,
        disk_bandwidth_bytes_per_s: 80e6,
        overflow_rescans: 1.0,
    };

    /// Cap3's model: Windows speedup observed by the paper.
    pub fn cap3() -> AppModel {
        AppModel {
            windows_speedup: 1.125,
            ..AppModel::DEFAULT
        }
    }
}

impl Default for AppModel {
    fn default() -> Self {
        AppModel::DEFAULT
    }
}

/// Seconds for one task on `itype` while `active_workers` tasks run
/// concurrently on the node.
///
/// `active_workers` is the *configured* workers per node (the paper runs
/// fully loaded nodes; modeling instantaneous load would add noise without
/// changing any conclusion).
pub fn task_service_seconds(
    itype: &InstanceType,
    active_workers: usize,
    profile: &ResourceProfile,
    app: &AppModel,
) -> f64 {
    let active = active_workers.max(1);

    // 1. Clock scaling (+ OS factor).
    let os = match itype.platform {
        OsPlatform::Windows => app.windows_speedup,
        OsPlatform::Linux => 1.0,
    };
    // Oversubscription: more workers than cores time-share them.
    let oversub = (active as f64 / itype.cores as f64).max(1.0);
    let t_cpu = profile.cpu_seconds_ref * (REFERENCE_CLOCK_GHZ / itype.clock_ghz) / os * oversub;

    // 2. Memory-bandwidth contention.
    let share = itype.mem_bandwidth_bytes_per_s / active.min(itype.cores).max(1) as f64;
    let t_mem = profile.mem_traffic_bytes as f64 / share;

    // 3. Memory-capacity pressure: private sets per worker + one shared set
    // per node must fit in node memory; the overflow is paged from disk.
    let demand = profile
        .mem_bytes
        .saturating_mul(active as u64)
        .saturating_add(profile.shared_mem_bytes);
    let overflow = demand.saturating_sub(itype.memory_bytes);
    let t_page = if overflow > 0 {
        // Each worker re-reads its share of the overflow from local disk,
        // all workers contending for the same spindle.
        overflow as f64 / active as f64 * app.overflow_rescans
            / (app.disk_bandwidth_bytes_per_s / active as f64)
    } else {
        0.0
    };

    t_cpu.max(t_mem) + t_page
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::*;

    fn cpu_task(secs: f64) -> ResourceProfile {
        ResourceProfile::cpu_bound(secs)
    }

    #[test]
    fn clock_scaling_orders_ec2_types_for_cpu_work() {
        let p = cpu_task(100.0);
        let t = |it: &InstanceType| task_service_seconds(it, it.cores, &p, &AppModel::DEFAULT);
        // HM4XL fastest, HCXL next, L/XL slowest (Figure 4's ordering).
        assert!(t(&EC2_HM4XL) < t(&EC2_HCXL));
        assert!(t(&EC2_HCXL) < t(&EC2_LARGE));
        assert!((t(&EC2_LARGE) - t(&EC2_XLARGE)).abs() < 1e-9, "same clock");
        // Reference: HCXL runs at the reference clock exactly.
        assert!((t(&EC2_HCXL) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn windows_speedup_for_cap3() {
        let p = cpu_task(112.5);
        let linux = task_service_seconds(&BARE_CAP3, 1, &p, &AppModel::cap3());
        let win = task_service_seconds(&BARE_CAP3_WIN, 1, &p, &AppModel::cap3());
        assert!(
            (linux / win - 1.125).abs() < 1e-9,
            "12.5% faster on Windows"
        );
    }

    #[test]
    fn memory_bandwidth_contention_caps_gtm() {
        // A task moving 50 GB of memory traffic with tiny CPU time.
        let p = ResourceProfile {
            cpu_seconds_ref: 1.0,
            mem_bytes: 1 << 30,
            shared_mem_bytes: 0,
            mem_traffic_bytes: 50_000_000_000,
            input_bytes: 0,
            output_bytes: 0,
        };
        // One worker on HM4XL: full 20 GB/s -> 2.5 s.
        let alone = task_service_seconds(&EC2_HM4XL, 1, &p, &AppModel::DEFAULT);
        assert!((alone - 2.5).abs() < 1e-9);
        // Eight workers: 2.5 GB/s each -> 20 s.
        let shared = task_service_seconds(&EC2_HM4XL, 8, &p, &AppModel::DEFAULT);
        assert!((shared - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_core_bandwidth_decides_efficiency_ordering() {
        // Azure Small (sole tenant) loses less efficiency than HCXL with 8
        // workers for the same memory-bound task — the paper's Figure 14.
        let p = ResourceProfile {
            cpu_seconds_ref: 4.0,
            mem_bytes: 1 << 28,
            shared_mem_bytes: 0,
            mem_traffic_bytes: 8_000_000_000,
            input_bytes: 0,
            output_bytes: 0,
        };
        let app = AppModel::DEFAULT;
        let eff = |it: &InstanceType| {
            let seq = task_service_seconds(it, 1, &p, &app);
            let par = task_service_seconds(it, it.cores, &p, &app);
            seq / par // per-task efficiency proxy
        };
        assert!(eff(&AZURE_SMALL) > eff(&EC2_HCXL));
        assert!(eff(&EC2_HCXL) > eff(&BARE_HPC16));
    }

    #[test]
    fn blast_database_overflow_penalizes_small_memory() {
        // 8.7 GB shared DB + modest private sets.
        let p = ResourceProfile {
            cpu_seconds_ref: 60.0,
            mem_bytes: 256 << 20,
            shared_mem_bytes: 8_700_000_000,
            mem_traffic_bytes: 0,
            input_bytes: 0,
            output_bytes: 0,
        };
        let app = AppModel::DEFAULT;
        // Azure Small (1.7 GB): massive overflow, big penalty.
        let small = task_service_seconds(&AZURE_SMALL, 1, &p, &app);
        // Azure XL (15 GB): fits fully.
        let xl = task_service_seconds(&AZURE_XLARGE, 8, &p, &app);
        assert!(small > 2.0 * xl, "small={small}, xl={xl}");
        // HM4XL (68 GB) has no penalty; HCXL (7 GB) has a mild one (Fig. 8).
        let hm = task_service_seconds(&EC2_HM4XL, 8, &p, &app);
        let hc = task_service_seconds(&EC2_HCXL, 8, &p, &app);
        assert!(hc > hm);
        assert!(
            hc < 3.0 * hm,
            "penalty is a slowdown, not a cliff: hc={hc}, hm={hm}"
        );
    }

    #[test]
    fn oversubscription_slows_linearly() {
        let p = cpu_task(10.0);
        let loaded = task_service_seconds(&EC2_HCXL, 16, &p, &AppModel::DEFAULT);
        assert!(
            (loaded - 20.0).abs() < 1e-9,
            "16 workers on 8 cores double the time"
        );
    }
}
