//! The measured binary: end-to-end metrics with tracing off. It has no
//! allocation counter and no profiler attached.

fn main() {
    std::process::exit(perfbench::cli::main(None));
}
