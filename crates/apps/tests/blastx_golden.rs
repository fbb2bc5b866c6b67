//! Golden pins for the blastx stage of the native bio pipeline: the exact
//! bytes it writes and the resident size of the database it searches.
//!
//! The search kernel is tuned for speed; these pins hold it to the hits
//! (subject, frame, bit score and E-value as printed) the straightforward
//! kernel produced, on the inputs the pipeline really feeds it.

use ppc_apps::pipeline::{bio_pipeline_native, pipeline_protein_db};
use ppc_bio::blast::BlastDb;

/// FNV-1a over every byte fed to it.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the annotate (blastx) stage's outputs, keys and bytes, for
/// `bio_pipeline_native(2, 32, seed)`: the assemble stage runs first and
/// its outputs reach blastx through the workflow's own adapter.
fn blastx_stage_digest(seed: u64) -> u64 {
    let wf = bio_pipeline_native(2, 32, seed);
    let assemble = &wf.stages[0];
    let exec = assemble.executor.as_ref().unwrap();
    let contigs: Vec<(String, Vec<u8>)> = assemble
        .specs
        .iter()
        .zip(&assemble.inputs)
        .map(|(spec, input)| (spec.output_key.clone(), exec.run(spec, input).unwrap()))
        .collect();
    let annotate = &wf.stages[1];
    assert_eq!(annotate.name, "annotate");
    let inputs = wf
        .data_in_edge(1)
        .unwrap()
        .adapter
        .as_ref()
        .unwrap()
        .adapt(&contigs, &annotate.specs)
        .unwrap();
    let exec = annotate.executor.as_ref().unwrap();
    let mut bytes = Vec::new();
    for (spec, input) in annotate.specs.iter().zip(&inputs) {
        let out = exec.run(spec, input).unwrap();
        assert!(
            !out.is_empty(),
            "seed {seed}: contigs annotate against the db"
        );
        bytes.extend_from_slice(spec.output_key.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&out);
        bytes.push(0);
    }
    fnv64(bytes)
}

#[test]
fn blastx_stage_output_is_pinned() {
    for (seed, want) in [
        (1, 0xf33c_7d87_19af_66ffu64),
        (2, 0xc019_9e0c_08bf_732a),
        (3, 0xe2e5_b3e7_7781_ba5a),
    ] {
        let got = blastx_stage_digest(seed);
        assert_eq!(got, want, "seed {seed}: got {got:#018x}");
    }
}

#[test]
fn pipeline_db_resident_bytes_are_pinned() {
    for (seed, want) in [(1, 61_796u64), (2, 65_556), (3, 57_636)] {
        let db = BlastDb::build(pipeline_protein_db(seed), 3);
        assert_eq!(db.resident_bytes(), want, "seed {seed}");
    }
}
