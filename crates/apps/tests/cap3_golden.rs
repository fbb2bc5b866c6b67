//! Golden pins for the Cap3 kernel: the exact bytes `Cap3Executor` writes
//! on the inputs the native pipeline and the job service really feed it.
//!
//! The assembler is tuned for speed; these pins hold it to the contigs and
//! singleton reports the straightforward hash-map kernel produced.

use ppc_apps::cap3::Cap3Executor;
use ppc_apps::pipeline::bio_pipeline_native;
use ppc_apps::workload::cap3_native_inputs;
use ppc_core::Executor;

/// FNV-1a over every byte fed to it.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the assemble (Cap3) stage's outputs, keys and bytes, for
/// `bio_pipeline_native(2, 32, seed)`.
fn assemble_stage_digest(seed: u64) -> u64 {
    let wf = bio_pipeline_native(2, 32, seed);
    let assemble = &wf.stages[0];
    assert_eq!(assemble.name, "assemble");
    let exec = assemble.executor.as_ref().unwrap();
    let mut bytes = Vec::new();
    for (spec, input) in assemble.specs.iter().zip(&assemble.inputs) {
        let out = exec.run(spec, input).unwrap();
        assert!(!out.is_empty(), "seed {seed}: Cap3 writes a report");
        bytes.extend_from_slice(spec.output_key.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&out);
        bytes.push(0);
    }
    fnv64(bytes)
}

#[test]
fn pipeline_assemble_stage_output_is_pinned() {
    for (seed, want) in [
        (1, 0x2064_a168_3b74_ff10u64),
        (2, 0x9103_0692_dec2_37b5),
        (3, 0xc7eb_3a8d_6a46_fb75),
    ] {
        let got = assemble_stage_digest(seed);
        assert_eq!(got, want, "seed {seed}: got {got:#018x}");
    }
}

/// The job service's Cap3 inputs (12 files of 60 reads over 2400-base
/// genomes), every output concatenated in file order.
#[test]
fn serve_inputs_output_is_pinned() {
    let exec = Cap3Executor::new();
    let bytes: Vec<u8> = cap3_native_inputs(12, 60, 2400, 1)
        .iter()
        .flat_map(|(spec, input)| exec.run(spec, input).unwrap())
        .collect();
    let got = fnv64(bytes);
    assert_eq!(got, 0xdce6_7f57_063f_1fc7, "got {got:#018x}");
}
