//! End-to-end benchmark runs (`--trace 0`): the system allocator, no
//! counting. See the `ppc_perfbench` crate docs.

fn main() -> std::process::ExitCode {
    ppc_perfbench::main(false)
}
