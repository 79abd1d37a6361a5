//! Scripted node churn and network disruption for the discrete-event
//! simulator.
//!
//! The paper's systems ran on PlanetLab, where nodes reboot, fall off the
//! network, and return with their state intact — and where entire regions
//! occasionally lose connectivity to the rest of the mesh. A [`Scenario`] is
//! a time-ordered script of such disruptions that the
//! [`Simulator`](crate::sim::Simulator) replays while the coordinate stacks
//! run:
//!
//! * **join** — a node that was down (or never up) enters the mesh with a
//!   fresh coordinate stack and a seeded neighbour set;
//! * **graceful leave** — a node announces departure: it stops probing and
//!   is removed from every live node's probe rotation;
//! * **crash** — a node vanishes mid-flight: probes of it time out and are
//!   reported as `Event::ProbeLost` until it returns or is evicted;
//! * **crash-restart** — a crashed node comes back from the
//!   `NodeSnapshot` taken at the instant it died, resuming the exact
//!   filter/heuristic/probe state it crashed with (the `nc-proto`
//!   persist/restore path, end to end);
//! * **flash crowd** — a batch of nodes joins at the same instant,
//!   stress-testing convergence of the existing embedding;
//! * **partition** — links between one node group and the rest drop every
//!   packet until the partition heals.
//!
//! Scenarios are applied identically to every named configuration of a run,
//! so side-by-side comparisons stay apples-to-apples under churn.
//!
//! # Example: crash a quarter of the mesh, restart it five minutes later
//!
//! ```
//! use nc_netsim::scenario::Scenario;
//!
//! let scenario = Scenario::crash_restart(vec![0, 1, 2, 3], 1_800.0, 2_100.0);
//! assert_eq!(scenario.events().len(), 2);
//! ```

use crate::adversary::AdversaryModel;
use crate::topology::Region;

/// One scripted disruption.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// The nodes (down until now) enter the mesh with fresh coordinate
    /// stacks and seeded neighbour sets. A batch of several nodes is a
    /// flash crowd.
    Join {
        /// Indices of the joining nodes.
        nodes: Vec<usize>,
    },
    /// The nodes announce departure: they stop probing and are removed from
    /// every live node's probe rotation. A later [`ScenarioAction::Join`]
    /// brings them back with fresh state.
    Leave {
        /// Indices of the departing nodes.
        nodes: Vec<usize>,
    },
    /// The nodes vanish without warning. A per-configuration
    /// `NodeSnapshot` of each is taken at the instant of the crash so a
    /// later [`ScenarioAction::Restart`] can revive it.
    Crash {
        /// Indices of the crashing nodes.
        nodes: Vec<usize>,
    },
    /// Crashed nodes come back. Each restores from the snapshot taken when
    /// it crashed (or starts fresh if it never crashed); any probes that
    /// were outstanding at the crash are expired as lost on revival.
    Restart {
        /// Indices of the restarting nodes.
        nodes: Vec<usize>,
    },
    /// Every packet between `group` and the rest of the mesh is dropped
    /// until `heal_at_s`.
    Partition {
        /// One side of the partition (the other side is everyone else).
        group: Vec<usize>,
        /// Simulation time at which connectivity is restored.
        heal_at_s: f64,
    },
    /// Like [`ScenarioAction::Partition`], with the group defined as every
    /// node placed in the given regions — e.g. "Europe loses transatlantic
    /// connectivity".
    PartitionRegions {
        /// Regions forming one side of the partition.
        regions: Vec<Region>,
        /// Simulation time at which connectivity is restored.
        heal_at_s: f64,
    },
    /// The nodes turn Byzantine (or honest again): from now on each listed
    /// node corrupts every probe reply it sends according to `model` —
    /// `None` restores honest behaviour. Compromise mid-run, a honeypot
    /// cleanup, a rolling attack front: all are `SetAdversary` scripts.
    SetAdversary {
        /// Indices of the nodes whose behaviour changes.
        nodes: Vec<usize>,
        /// The behaviour to install, or `None` to restore honesty.
        model: Option<AdversaryModel>,
    },
}

/// A [`ScenarioAction`] bound to its simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// Simulation time (seconds) at which the action fires.
    pub at_s: f64,
    /// What happens.
    pub action: ScenarioAction,
}

/// A time-ordered script of churn and disruption events, plus the set of
/// nodes that start the run down (waiting for a [`ScenarioAction::Join`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
    initially_down: Vec<usize>,
}

impl Scenario {
    /// An empty scenario: every node is up for the whole run and nothing is
    /// disrupted (the behaviour of a simulator without a scenario).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an action at `at_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `at_s` is negative or not finite, or when a partition's
    /// heal time does not lie after its start.
    pub fn at(mut self, at_s: f64, action: ScenarioAction) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "scenario times must be finite and non-negative"
        );
        match &action {
            ScenarioAction::Partition { heal_at_s, .. }
            | ScenarioAction::PartitionRegions { heal_at_s, .. } => {
                assert!(
                    heal_at_s.is_finite() && *heal_at_s > at_s,
                    "a partition must heal after it starts"
                );
            }
            ScenarioAction::SetAdversary {
                model: Some(model), ..
            } => {
                if let Err(error) = model.validate() {
                    panic!("invalid scenario adversary model: {error}");
                }
            }
            _ => {}
        }
        self.events.push(ScenarioEvent { at_s, action });
        self.events
            .sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
        self
    }

    /// Marks nodes as down from the start of the run; they probe no one and
    /// answer nothing until a [`ScenarioAction::Join`] brings them up.
    pub fn with_initially_down(mut self, mut nodes: Vec<usize>) -> Self {
        self.initially_down.append(&mut nodes);
        self.initially_down.sort_unstable();
        self.initially_down.dedup();
        self
    }

    /// Canned script: `nodes` crash at `crash_at_s` and restart from their
    /// crash snapshots at `restart_at_s`.
    ///
    /// # Panics
    ///
    /// Panics when the restart does not lie after the crash.
    pub fn crash_restart(nodes: Vec<usize>, crash_at_s: f64, restart_at_s: f64) -> Self {
        assert!(
            restart_at_s > crash_at_s,
            "restart must come after the crash"
        );
        Scenario::new()
            .at(
                crash_at_s,
                ScenarioAction::Crash {
                    nodes: nodes.clone(),
                },
            )
            .at(restart_at_s, ScenarioAction::Restart { nodes })
    }

    /// Canned script: `nodes` sit out the start of the run and all join at
    /// `join_at_s` — a flash crowd hitting a converged mesh.
    pub fn flash_crowd(nodes: Vec<usize>, join_at_s: f64) -> Self {
        Scenario::new()
            .with_initially_down(nodes.clone())
            .at(join_at_s, ScenarioAction::Join { nodes })
    }

    /// Canned script: every node in `regions` is partitioned from the rest
    /// of the mesh between `at_s` and `heal_at_s`.
    pub fn regional_partition(regions: Vec<Region>, at_s: f64, heal_at_s: f64) -> Self {
        Scenario::new().at(
            at_s,
            ScenarioAction::PartitionRegions { regions, heal_at_s },
        )
    }

    /// The scripted events, in time order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Nodes that start the run down.
    pub fn initially_down(&self) -> &[usize] {
        &self.initially_down
    }

    /// True when the scenario disturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.initially_down.is_empty()
    }

    /// The largest node index the scenario references, for validation
    /// against the workload size.
    pub fn max_node(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|event| match &event.action {
                ScenarioAction::Join { nodes }
                | ScenarioAction::Leave { nodes }
                | ScenarioAction::Crash { nodes }
                | ScenarioAction::Restart { nodes }
                | ScenarioAction::Partition { group: nodes, .. }
                | ScenarioAction::SetAdversary { nodes, .. } => nodes.iter().copied().max(),
                ScenarioAction::PartitionRegions { .. } => None,
            })
            .chain(self.initially_down.iter().copied())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_kept_in_time_order() {
        let scenario = Scenario::new()
            .at(300.0, ScenarioAction::Leave { nodes: vec![2] })
            .at(100.0, ScenarioAction::Crash { nodes: vec![1] });
        let times: Vec<f64> = scenario.events().iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![100.0, 300.0]);
    }

    #[test]
    fn crash_restart_builds_both_events() {
        let scenario = Scenario::crash_restart(vec![4, 5], 100.0, 200.0);
        assert!(matches!(
            scenario.events()[0].action,
            ScenarioAction::Crash { .. }
        ));
        assert!(matches!(
            scenario.events()[1].action,
            ScenarioAction::Restart { .. }
        ));
        assert_eq!(scenario.max_node(), Some(5));
    }

    #[test]
    fn flash_crowd_marks_nodes_initially_down() {
        let scenario = Scenario::flash_crowd(vec![7, 8, 9], 500.0);
        assert_eq!(scenario.initially_down(), &[7, 8, 9]);
        assert!(!scenario.is_empty());
        assert_eq!(scenario.max_node(), Some(9));
    }

    #[test]
    fn empty_scenario_is_empty() {
        assert!(Scenario::new().is_empty());
        assert_eq!(Scenario::new().max_node(), None);
    }

    #[test]
    #[should_panic(expected = "heal after it starts")]
    fn partitions_must_heal_later() {
        let _ = Scenario::new().at(
            100.0,
            ScenarioAction::Partition {
                group: vec![0],
                heal_at_s: 50.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "restart must come after")]
    fn restart_must_follow_crash() {
        let _ = Scenario::crash_restart(vec![0], 200.0, 100.0);
    }

    #[test]
    fn set_adversary_is_validated_and_counted_in_max_node() {
        let scenario = Scenario::new().at(
            60.0,
            ScenarioAction::SetAdversary {
                nodes: vec![3, 11],
                model: Some(AdversaryModel::DelayAttacker {
                    extra_delay_ms: 200.0,
                }),
            },
        );
        assert_eq!(scenario.max_node(), Some(11));
        // Restoring honesty needs no model to validate.
        let healed = scenario.at(
            120.0,
            ScenarioAction::SetAdversary {
                nodes: vec![3],
                model: None,
            },
        );
        assert_eq!(healed.events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid scenario adversary model")]
    fn set_adversary_rejects_malformed_models() {
        let _ = Scenario::new().at(
            10.0,
            ScenarioAction::SetAdversary {
                nodes: vec![0],
                model: Some(AdversaryModel::JitterBomb {
                    max_extra_delay_ms: f64::INFINITY,
                }),
            },
        );
    }
}
