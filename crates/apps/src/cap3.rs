//! The Cap3 application: FASTA fragments in, contig FASTA out.

use ppc_bio::assembly::{assemble_cancellable, AssemblyParams};
use ppc_bio::fasta;
use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::{Cancel, PpcError, Result};

/// The "executable" every framework schedules for the Cap3 experiments:
/// parses one FASTA fragment file, assembles it, and emits the contigs (and
/// a singleton report) as FASTA — matching Cap3's file-in/file-out contract.
pub struct Cap3Executor {
    pub params: AssemblyParams,
}

impl Cap3Executor {
    pub fn new() -> Cap3Executor {
        Cap3Executor {
            params: AssemblyParams::default(),
        }
    }
}

impl Default for Cap3Executor {
    fn default() -> Self {
        Cap3Executor::new()
    }
}

impl Executor for Cap3Executor {
    fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
        self.run_cancellable(spec, input, &Cancel::never())
    }

    fn run_cancellable(&self, _spec: &TaskSpec, input: &[u8], cancel: &Cancel) -> Result<Vec<u8>> {
        let reads = fasta::parse(input)?;
        if reads.is_empty() {
            return Err(PpcError::TaskFailed("empty FASTA input".into()));
        }
        let assembly = assemble_cancellable(&reads, &self.params, cancel)?;
        let mut records = assembly.to_fasta();
        // Cap3 also reports unassembled reads (the `.cap.singlets` file);
        // we fold them into the same output object.
        for (i, id) in assembly.singletons.iter().enumerate() {
            records.push(
                ppc_bio::fasta::FastaRecord::new(format!("singlet{i:04}"), Vec::new())
                    .with_desc(id.clone()),
            );
        }
        Ok(fasta::format(&records))
    }

    fn name(&self) -> &str {
        "cap3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_bio::simulate::{random_genome, shotgun_reads, ShotgunParams};
    use ppc_core::task::ResourceProfile;

    fn sample_input(seed: u64) -> Vec<u8> {
        let g = random_genome(1200, seed);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 40,
                read_len_mean: 220.0,
                read_len_sd: 15.0,
                ..Default::default()
            },
            seed + 1,
        );
        fasta::format(&reads)
    }

    fn spec() -> TaskSpec {
        TaskSpec::new(0, "cap3", "f0.fa", ResourceProfile::cpu_bound(0.0))
    }

    #[test]
    fn produces_contig_fasta() {
        let exec = Cap3Executor::new();
        let out = exec.run(&spec(), &sample_input(3)).unwrap();
        let contigs = fasta::parse(&out).unwrap();
        assert!(!contigs.is_empty());
        assert!(contigs[0].id.starts_with("contig"));
        assert!(contigs[0].len() > 500, "assembled something substantial");
    }

    #[test]
    fn deterministic_and_idempotent() {
        // Idempotence is the property the Classic Cloud fault tolerance
        // depends on: re-running a task must give the identical output.
        let exec = Cap3Executor::new();
        let input = sample_input(4);
        let a = exec.run(&spec(), &input).unwrap();
        let b = exec.run(&spec(), &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_garbage() {
        let exec = Cap3Executor::new();
        assert!(exec.run(&spec(), b"not fasta at all\x01").is_err());
        assert!(exec.run(&spec(), b"").is_err());
    }
}
