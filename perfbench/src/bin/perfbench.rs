//! End-to-end runs of the precipice benchmark (`--trace 0`), on the
//! system allocator. Usage: see `perfbench/README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&argv, false));
}
