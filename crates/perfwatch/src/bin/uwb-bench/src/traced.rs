//! The traced benchmark binary: built with `count-alloc`, so per-layer
//! runs (`--trace 1`) can count allocations.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(uwb_bench::main_with(&args));
}
