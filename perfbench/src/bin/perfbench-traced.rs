//! Per-layer benchmark runs (`--trace 1`): installs the counting
//! allocator. See the `ppc_perfbench` crate docs.

#[global_allocator]
static ALLOC: ppc_perfbench::alloc::CountingAlloc = ppc_perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    ppc_perfbench::main(true)
}
