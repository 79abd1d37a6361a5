//! Runs the paper's evaluation — every row of `nc_experiments::EXPERIMENTS`,
//! or only the ones named — and prints each rendered result under a header.
//!
//! The experiments are mutually independent (each builds its own simulator
//! from its own seeds), so they execute **in parallel** on scoped threads;
//! the rendered outputs are buffered and printed in the order selected, so
//! the report reads identically to a sequential run.
//!
//! Usage: `cargo run --release --bin run_all [quick|standard|paper] [name…]`

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the report is this program's output"
)]

fn main() {
    let (scale, selected) =
        nc_experiments::parse_args(std::env::args().skip(1)).unwrap_or_else(|error| {
            eprintln!("run_all: {error}");
            std::process::exit(2);
        });
    let names: Vec<&str> = selected.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "running {} at scale '{scale}' in parallel ...",
        names.join(", ")
    );

    // Nothing is printed until every section can appear in order.
    let rendered: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = selected
            .iter()
            .map(|&(name, title, run)| (name, title, scope.spawn(move || run(scale))))
            .collect();
        handles
            .into_iter()
            .map(|(name, title, handle)| {
                let (preset, output) = handle
                    .join()
                    .unwrap_or_else(|_| panic!("experiment '{name}' panicked"));
                (name, title, preset, output)
            })
            .collect()
    });

    for (name, title, preset, output) in rendered {
        if preset != scale {
            eprintln!("{name} has no '{scale}' preset: ran '{preset}'");
        }
        println!("\n{}", "=".repeat(78));
        println!("{title}");
        println!("{}\n", "=".repeat(78));
        println!("{output}");
    }
}
