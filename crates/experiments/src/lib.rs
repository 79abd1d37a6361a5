//! Experiment harness reproducing every table and figure of *Stable and
//! Accurate Network Coordinates* (Ledlie & Seltzer).
//!
//! Each `figXX` module corresponds to one figure (plus [`table1`] for
//! Table I). A module exposes:
//!
//! * a configuration struct with `quick()` (seconds, used by the test suite)
//!   and `standard()` (a few minutes, `run_all`'s default) presets and,
//!   Figure 6's fixed cluster run apart, a `scale` field that sizes the
//!   workload ([`Scale::Paper`] for the paper's own dimensions);
//! * a `run(config)` function returning a typed result;
//! * a `render()` method on the result producing the textual table / series
//!   the paper's figure shows.
//!
//! [`EXPERIMENTS`] lists them once, in figure order; the one binary,
//! `run_all [quick|standard|paper] [name…]`, walks that table.

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod report;
pub mod sweeps;
pub mod table1;
pub mod workloads;

pub use workloads::Scale;

/// One row of [`EXPERIMENTS`]: the name `run_all` selects it by, the title
/// its section of the report carries, and the entry function, which runs
/// the experiment for the requested scale and returns the preset that
/// actually ran beside the rendered result.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> (Scale, String));

/// Entry function of an experiment whose configuration carries a `scale`
/// field: `quick()` as the tests run it, otherwise `standard()`'s sweep on
/// the requested scale's workload.
macro_rules! scaled {
    ($module:ident :: $config:ident) => {
        |scale| {
            let mut config = match scale {
                Scale::Quick => $module::$config::quick(),
                Scale::Standard | Scale::Paper => $module::$config::standard(),
            };
            config.scale = scale;
            (scale, $module::run(config).render())
        }
    };
}

/// The paper's evaluation, in the order the report prints it — the only
/// place the experiments are enumerated.
pub static EXPERIMENTS: [Experiment; 15] = [
    ("fig02", "Figure 2", scaled!(fig02::Fig02Config)),
    ("fig03", "Figure 3", scaled!(fig03::Fig03Config)),
    ("fig04", "Figure 4", scaled!(fig04::Fig04Config)),
    ("fig05", "Figure 5", scaled!(fig05::Fig05Config)),
    ("table1", "Table I", scaled!(table1::Table1Config)),
    // A fixed cluster run with no workload to scale: ten minutes is the
    // paper's own length, so `paper` runs `standard()`.
    ("fig06", "Figure 6", |scale| match scale {
        Scale::Quick => (scale, fig06::run(fig06::Fig06Config::quick()).render()),
        Scale::Standard | Scale::Paper => (
            Scale::Standard,
            fig06::run(fig06::Fig06Config::standard()).render(),
        ),
    }),
    ("fig07", "Figure 7", scaled!(fig07::Fig07Config)),
    ("fig08", "Figure 8", scaled!(fig08::Fig08Config)),
    ("fig09", "Figure 9", scaled!(fig09::Fig09Config)),
    ("fig10", "Figure 10", scaled!(fig10::Fig10Config)),
    ("fig11", "Figure 11", scaled!(fig11::Fig11Config)),
    ("fig12", "Figure 12", scaled!(fig12::Fig12Config)),
    ("fig13", "Figure 13", scaled!(fig13::Fig13Config)),
    ("fig14", "Figure 14", scaled!(fig14::Fig14Config)),
    ("fig15", "Figure 15", scaled!(fig15::Fig15Config)),
];

/// Parses `run_all`'s arguments, `[quick|standard|paper] [name…]`: the
/// scale (default `standard`) and the selected rows of [`EXPERIMENTS`] in
/// the order named (none named = all of them). An unknown scale or name is
/// an error listing the valid choices.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Scale, Vec<Experiment>), String> {
    let mut args = args.into_iter();
    let scale = match args.next().as_deref() {
        None | Some("standard") => Scale::Standard,
        Some("quick") => Scale::Quick,
        Some("paper") => Scale::Paper,
        Some(other) => {
            return Err(format!(
                "unknown scale '{other}' (choices: quick, standard, paper)"
            ))
        }
    };
    let selected = args
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(known, ..)| *known == name)
                .copied()
                .ok_or_else(|| {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|(known, ..)| *known).collect();
                    format!(
                        "unknown experiment '{name}' (choices: {})",
                        names.join(", ")
                    )
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if selected.is_empty() {
        Ok((scale, EXPERIMENTS.to_vec()))
    } else {
        Ok((scale, selected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        let (scale, selected) = parse_args(args.iter().map(|arg| arg.to_string()))?;
        Ok((scale, selected.iter().map(|(name, ..)| *name).collect()))
    }

    #[test]
    fn arguments_are_a_scale_then_experiment_names() {
        assert_eq!(
            parse(&["quick", "fig15"]),
            Ok((Scale::Quick, vec!["fig15"]))
        );
        assert_eq!(
            parse(&["paper", "fig13", "table1"]),
            Ok((Scale::Paper, vec!["fig13", "table1"]))
        );
        let (scale, all) = parse(&[]).unwrap();
        assert_eq!((scale, all.len()), (Scale::Standard, EXPERIMENTS.len()));
        assert!(parse(&["fast"])
            .unwrap_err()
            .contains("quick, standard, paper"));
        let unknown = parse(&["quick", "nope"]).unwrap_err();
        for (name, ..) in EXPERIMENTS {
            assert!(unknown.contains(name), "{unknown} does not list {name}");
        }
    }

    #[test]
    fn experiments_are_unique_and_in_figure_order() {
        // Table I sits between Figures 5 and 6, as in the paper; every
        // other row is `figNN`, titled `Figure N`, strictly ascending.
        let (name, title, _) = EXPERIMENTS[4];
        assert_eq!((name, title), ("table1", "Table I"));
        let figures: Vec<u32> = EXPERIMENTS
            .iter()
            .filter(|(name, ..)| *name != "table1")
            .map(|(name, title, _)| {
                let number = name.strip_prefix("fig").unwrap().parse().unwrap();
                assert_eq!(*name, format!("fig{number:02}"));
                assert_eq!(*title, format!("Figure {number}"));
                number
            })
            .collect();
        assert_eq!(figures.len(), EXPERIMENTS.len() - 1);
        assert!(
            figures.windows(2).all(|pair| pair[0] < pair[1]),
            "{figures:?}"
        );
    }
}
