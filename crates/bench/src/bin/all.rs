//! Prints the reproduced evaluation section — every table, figure, and
//! ablation in paper order, or just the exhibits named on the command line.
//!
//! ```bash
//! cargo run --release -p ppc-bench --bin all                  # every exhibit
//! cargo run --release -p ppc-bench --bin all -- fig04 table4  # just these
//! cargo run --release -p ppc-bench --bin all -- --csv results/
//! ```
//!
//! With `--csv <dir>` each table and figure is also written as a CSV file
//! for downstream plotting. An unknown name lists the valid ones.

use ppc_bench::ablations;
use ppc_core::report::{Figure, Table};
use std::path::PathBuf;

enum Exhibit {
    Table(Table),
    Figure(Figure),
    /// Free-form output with no tabular form (and so no CSV).
    Text(String),
}

/// An exhibit's name and how to produce it.
type Entry = (&'static str, fn() -> Exhibit);

/// Every exhibit, in paper order.
const EXHIBITS: &[Entry] = &[
    ("table1", || Exhibit::Table(ppc_bench::table1())),
    ("table2", || Exhibit::Table(ppc_bench::table2())),
    ("table3", || Exhibit::Table(ppc_bench::table3())),
    ("fig03", || Exhibit::Figure(ppc_bench::fig03())),
    ("fig04", || Exhibit::Figure(ppc_bench::fig04())),
    ("fig05", || Exhibit::Figure(ppc_bench::fig05())),
    ("fig06", || Exhibit::Figure(ppc_bench::fig06())),
    ("table4", || Exhibit::Table(ppc_bench::table4())),
    ("cost_comparison", || {
        Exhibit::Table(ppc_bench::cost_comparison_table())
    }),
    ("fig07", || Exhibit::Figure(ppc_bench::fig07())),
    ("fig08", || Exhibit::Figure(ppc_bench::fig08())),
    ("fig09", || Exhibit::Figure(ppc_bench::fig09())),
    ("fig10", || Exhibit::Figure(ppc_bench::fig10())),
    ("fig11", || Exhibit::Figure(ppc_bench::fig11())),
    ("fig12", || Exhibit::Figure(ppc_bench::fig12())),
    ("fig13", || Exhibit::Figure(ppc_bench::fig13())),
    ("fig14", || Exhibit::Figure(ppc_bench::fig14())),
    ("fig15", || Exhibit::Figure(ppc_bench::fig15())),
    ("ablate_visibility_timeout", || {
        Exhibit::Figure(ablations::ablate_visibility_timeout())
    }),
    ("ablate_fault_rate", || {
        Exhibit::Figure(ablations::ablate_fault_rate())
    }),
    ("ablate_load_balance", || {
        Exhibit::Figure(ablations::ablate_load_balance())
    }),
    ("ablate_locality", || {
        Exhibit::Figure(ablations::ablate_locality())
    }),
    ("ablate_granularity", || {
        Exhibit::Figure(ablations::ablate_granularity())
    }),
    ("ablate_speculation", || {
        Exhibit::Figure(ablations::ablate_speculation())
    }),
    ("ablate_hedging", || {
        Exhibit::Figure(ablations::ablate_hedging())
    }),
    ("ablate_nic_contention", || {
        Exhibit::Figure(ablations::ablate_nic_contention())
    }),
    ("ablate_iterative_caching", || {
        Exhibit::Figure(ablations::ablate_iterative_caching())
    }),
    ("ablate_storage_latency", || {
        Exhibit::Figure(ablations::ablate_storage_latency())
    }),
    ("ablate_autoscale", || {
        Exhibit::Figure(ablations::ablate_autoscale())
    }),
    ("autoscale_timeline_demo", || {
        Exhibit::Text(ablations::autoscale_timeline_demo())
    }),
    ("sustained_variation", || {
        Exhibit::Figure(ablations::sustained_variation())
    }),
];

fn main() {
    let mut csv_dir: Option<PathBuf> = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            csv_dir = Some(PathBuf::from(
                args.next().unwrap_or_else(|| "results".into()),
            ));
        } else {
            names.push(arg);
        }
    }
    let selected: Vec<_> = if names.is_empty() {
        EXHIBITS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                EXHIBITS.iter().find(|(n, _)| n == name).unwrap_or_else(|| {
                    let known: Vec<_> = EXHIBITS.iter().map(|(n, _)| *n).collect();
                    eprintln!(
                        "error: unknown exhibit `{name}`; known: {}",
                        known.join(" ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    for (name, make) in selected {
        let (rendered, csv) = match make() {
            Exhibit::Table(t) => (t.to_string(), Some(t.to_csv())),
            Exhibit::Figure(f) => (f.to_string(), Some(f.to_csv())),
            Exhibit::Text(s) => (s, None),
        };
        println!("{rendered}");
        if let (Some(dir), Some(csv)) = (&csv_dir, csv) {
            std::fs::write(dir.join(format!("{name}.csv")), csv).expect("write csv");
        }
    }
    if let Some(dir) = &csv_dir {
        eprintln!("CSV files written to {}", dir.display());
    }
}
