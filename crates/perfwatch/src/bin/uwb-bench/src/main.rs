//! The untraced benchmark binary: end-to-end metrics, no accounting
//! allocator.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(uwb_bench::main_with(&args));
}
