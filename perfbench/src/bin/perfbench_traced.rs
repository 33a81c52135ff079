//! Traced runs of the precipice benchmark (`--trace 1`): the same code
//! as `perfbench`, under the counting global allocator. Usage: see
//! `perfbench/README.md`.

use perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&argv, true));
}
