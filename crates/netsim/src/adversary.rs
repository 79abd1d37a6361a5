//! Byzantine node behaviours injected at the schedule layer.
//!
//! The paper's stability filters were motivated by a hostile, noisy
//! internet; this module supplies the hostility. An [`AdversaryModel`] is
//! attached to a node (statically via
//! [`crate::SimConfig::with_adversaries`], or mid-run via
//! [`crate::scenario::ScenarioAction::SetAdversary`]) and corrupts every
//! probe *reply* that node sends. The corruption happens in the shared
//! schedule, outside the protocol engines, so all side-by-side
//! configurations of one run observe the same attack and the engines under
//! test receive exactly what a real victim would receive off the wire.
//!
//! Three attacker families cover the classic failure axes of coordinate
//! systems:
//!
//! * [`AdversaryModel::CoordinateLiar`] — reports a displaced (and
//!   optionally inflated) coordinate with a bogus, over-confident error
//!   estimate, in both the reply body and its piggybacked gossip. Because
//!   Vivaldi weights a neighbour by `w_i / (w_i + w_j)`, a liar claiming
//!   near-zero error pulls its victims with near-maximal force.
//! * [`AdversaryModel::DelayAttacker`] — holds every reply back by a fixed
//!   extra delay, inflating the measured RTT to drag the victim's spring
//!   away from the true embedding (the reply is physically late, so it can
//!   also cross the prober's timeout and surface as a loss).
//! * [`AdversaryModel::JitterBomb`] — adds a uniformly random per-reply
//!   delay, aimed squarely at percentile-based history filters: enough
//!   variance defeats a short window's notion of "the common case".
//!
//! All randomness is drawn from a dedicated adversary RNG in the schedule,
//! at reply-delivery time, and only for nodes that currently have a model
//! attached — an adversary-free run consumes no extra randomness and keeps
//! its event stream byte-identical.

use nc_proto::ProbeResponse;
use nc_vivaldi::{Coordinate, MAX_DIMS};
use rand::Rng;

use crate::sim::ConfigError;

/// One node's adversarial behaviour, applied to every probe reply it sends.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryModel {
    /// Reports a displaced/inflated coordinate and a bogus error estimate
    /// (reply body and gossip alike). Each reply lies in a fresh uniformly
    /// random direction, so the victim sees a point cloud on a sphere of
    /// radius `displacement_ms` around the liar's true coordinate.
    CoordinateLiar {
        /// Distance of the reported coordinate from the true one, in
        /// milliseconds of predicted latency.
        displacement_ms: f64,
        /// Multiplier applied to the true coordinate before displacement
        /// (1.0 = pure displacement; larger values blow up the claimed
        /// embedding).
        inflate: f64,
        /// The claimed Vivaldi error estimate. Small values (e.g. 0.01)
        /// weaponise the `w_i / (w_i + w_j)` sample weight.
        error_estimate: f64,
    },
    /// Delays every reply by a fixed amount, inflating the measured RTT.
    DelayAttacker {
        /// Extra reverse-path delay added to each reply, in milliseconds.
        extra_delay_ms: f64,
    },
    /// Delays each reply by an independent uniform random amount in
    /// `[0, max_extra_delay_ms)`, defeating short percentile filters.
    JitterBomb {
        /// Upper bound of the per-reply uniform extra delay, milliseconds.
        max_extra_delay_ms: f64,
    },
}

impl AdversaryModel {
    /// Checks the model's parameters: magnitudes must be finite and
    /// non-negative (the liar's `inflate` strictly positive), and the
    /// claimed error estimate must be a finite value in `(0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let finite_nonneg = |v: f64| v.is_finite() && v >= 0.0;
        match self {
            AdversaryModel::CoordinateLiar {
                displacement_ms,
                inflate,
                error_estimate,
            } => {
                if !finite_nonneg(*displacement_ms) {
                    return Err(ConfigError::AdversaryMagnitudeNotFinite(*displacement_ms));
                }
                if !(inflate.is_finite() && *inflate > 0.0) {
                    return Err(ConfigError::AdversaryMagnitudeNotFinite(*inflate));
                }
                if !(error_estimate.is_finite() && *error_estimate > 0.0 && *error_estimate <= 1.0)
                {
                    return Err(ConfigError::AdversaryErrorEstimateOutOfRange(
                        *error_estimate,
                    ));
                }
                Ok(())
            }
            AdversaryModel::DelayAttacker { extra_delay_ms } => {
                if !finite_nonneg(*extra_delay_ms) {
                    return Err(ConfigError::AdversaryMagnitudeNotFinite(*extra_delay_ms));
                }
                Ok(())
            }
            AdversaryModel::JitterBomb { max_extra_delay_ms } => {
                if !finite_nonneg(*max_extra_delay_ms) {
                    return Err(ConfigError::AdversaryMagnitudeNotFinite(
                        *max_extra_delay_ms,
                    ));
                }
                Ok(())
            }
        }
    }

    /// Draws this model's per-reply action. The draw happens once per
    /// exchange, in the shared schedule, so every side-by-side
    /// configuration observes the identical attack.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> AdversaryDraw {
        match self {
            AdversaryModel::CoordinateLiar {
                displacement_ms,
                inflate,
                error_estimate,
            } => {
                // Drawn in MAX_DIMS so the consumed randomness does not
                // depend on any particular stack's coordinate
                // dimensionality; truncated and renormalised at apply time.
                let mut direction = [0.0f64; MAX_DIMS];
                for component in direction.iter_mut() {
                    *component = rng.gen_range(-1.0..=1.0);
                }
                AdversaryDraw {
                    extra_delay_ms: 0.0,
                    lie: Some(CoordinateLie {
                        direction,
                        displacement_ms: *displacement_ms,
                        inflate: *inflate,
                        error_estimate: *error_estimate,
                    }),
                }
            }
            AdversaryModel::DelayAttacker { extra_delay_ms } => AdversaryDraw {
                extra_delay_ms: *extra_delay_ms,
                lie: None,
            },
            AdversaryModel::JitterBomb { max_extra_delay_ms } => AdversaryDraw {
                extra_delay_ms: if *max_extra_delay_ms > 0.0 {
                    rng.gen_range(0.0..*max_extra_delay_ms)
                } else {
                    0.0
                },
                lie: None,
            },
        }
    }
}

/// Static adversary assignment for a run: a seeded random `fraction` of the
/// population runs `model` from the start. Scenario scripts can change
/// individual nodes later via
/// [`crate::scenario::ScenarioAction::SetAdversary`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of nodes (rounded to the nearest count) made adversarial.
    pub fraction: f64,
    /// The behaviour assigned to every selected node.
    pub model: AdversaryModel,
    /// Seed of the dedicated adversary RNG (node selection and per-reply
    /// draws). Independent from the protocol and link streams, so the
    /// probe/gossip schedule is identical with and without adversaries.
    pub seed: u64,
}

impl AdversaryConfig {
    /// Builds an assignment with the default adversary seed.
    pub fn new(fraction: f64, model: AdversaryModel) -> Self {
        AdversaryConfig {
            fraction,
            model,
            seed: 0xBAD_5EED,
        }
    }

    /// Checks the fraction is a probability and the model well-formed.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.fraction.is_finite() && (0.0..=1.0).contains(&self.fraction)) {
            return Err(ConfigError::AdversaryFractionOutOfRange(self.fraction));
        }
        self.model.validate()
    }
}

/// One drawn adversarial action for a single reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AdversaryDraw {
    /// Extra reverse-path delay in milliseconds, added to both the observed
    /// RTT and the reply's in-flight time (the reply really is late, so it
    /// can cross the prober's timeout).
    pub extra_delay_ms: f64,
    /// The coordinate lie to apply to the reply, if any.
    pub lie: Option<CoordinateLie>,
}

/// A drawn coordinate lie: direction plus the liar's static parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CoordinateLie {
    /// Un-normalised displacement direction in `MAX_DIMS` dimensions.
    pub direction: [f64; MAX_DIMS],
    /// Displacement magnitude in milliseconds.
    pub displacement_ms: f64,
    /// Multiplier applied to the true coordinate before displacement.
    pub inflate: f64,
    /// The claimed error estimate stamped on the reply and its gossip.
    pub error_estimate: f64,
}

/// Applies a drawn lie to a reply in place: body coordinate, body error
/// estimate, and every piggybacked gossip entry.
pub(crate) fn apply_lie<Id>(response: &mut ProbeResponse<Id>, lie: &CoordinateLie) {
    distort(&mut response.coordinate, lie);
    response.error_estimate = lie.error_estimate;
    for entry in &mut response.gossip {
        distort(&mut entry.coordinate, lie);
        entry.error_estimate = lie.error_estimate;
    }
}

fn distort(coordinate: &mut Coordinate, lie: &CoordinateLie) {
    let dims = coordinate.dimensions();
    if lie.inflate != 1.0 {
        coordinate.scale_in_place(lie.inflate);
    }
    if lie.displacement_ms == 0.0 || dims == 0 {
        return;
    }
    let mut components = [0.0f64; MAX_DIMS];
    components[..dims].copy_from_slice(&lie.direction[..dims]);
    let norm = components[..dims].iter().map(|c| c * c).sum::<f64>().sqrt();
    if norm <= 1e-12 {
        // Degenerate truncation: lie along the first axis instead.
        components[0] = lie.displacement_ms;
    } else {
        let scale = lie.displacement_ms / norm;
        for component in components[..dims].iter_mut() {
            *component *= scale;
        }
    }
    let displacement =
        Coordinate::new(&components[..dims]).expect("finite displacement components");
    coordinate.displace_by(&displacement);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_proto::{GossipEntry, ProbeRequest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn liar() -> AdversaryModel {
        AdversaryModel::CoordinateLiar {
            displacement_ms: 1000.0,
            inflate: 1.0,
            error_estimate: 0.01,
        }
    }

    #[test]
    fn validate_accepts_sane_models() {
        assert!(liar().validate().is_ok());
        assert!(AdversaryModel::DelayAttacker {
            extra_delay_ms: 250.0
        }
        .validate()
        .is_ok());
        assert!(AdversaryModel::JitterBomb {
            max_extra_delay_ms: 400.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(matches!(
            AdversaryModel::DelayAttacker {
                extra_delay_ms: f64::NAN
            }
            .validate(),
            Err(ConfigError::AdversaryMagnitudeNotFinite(_))
        ));
        assert!(matches!(
            AdversaryModel::CoordinateLiar {
                displacement_ms: -1.0,
                inflate: 1.0,
                error_estimate: 0.1
            }
            .validate(),
            Err(ConfigError::AdversaryMagnitudeNotFinite(_))
        ));
        assert!(matches!(
            AdversaryModel::CoordinateLiar {
                displacement_ms: 10.0,
                inflate: 0.0,
                error_estimate: 0.1
            }
            .validate(),
            Err(ConfigError::AdversaryMagnitudeNotFinite(_))
        ));
        assert!(matches!(
            AdversaryModel::CoordinateLiar {
                displacement_ms: 10.0,
                inflate: 1.0,
                error_estimate: 0.0
            }
            .validate(),
            Err(ConfigError::AdversaryErrorEstimateOutOfRange(_))
        ));
        assert!(matches!(
            AdversaryConfig::new(1.5, liar()).validate(),
            Err(ConfigError::AdversaryFractionOutOfRange(_))
        ));
    }

    #[test]
    fn liar_draw_displaces_body_and_gossip_by_the_requested_distance() {
        let mut rng = StdRng::seed_from_u64(7);
        let draw = liar().draw(&mut rng);
        assert_eq!(draw.extra_delay_ms, 0.0);
        let lie = draw.lie.expect("liar always lies");

        let request = ProbeRequest::new(0usize, 1, 0);
        let truth = Coordinate::new([10.0, -4.0, 2.5]).unwrap();
        let mut response = ProbeResponse::new(1usize, &request, truth.clone(), 0.25);
        response.gossip.push(GossipEntry {
            id: 2usize,
            coordinate: Coordinate::new([1.0, 2.0, 3.0]).unwrap(),
            error_estimate: 0.3,
        });
        let gossip_truth = response.gossip[0].coordinate.clone();

        apply_lie(&mut response, &lie);
        assert!((response.coordinate.distance(&truth) - 1000.0).abs() < 1e-6);
        assert_eq!(response.error_estimate, 0.01);
        assert!((response.gossip[0].coordinate.distance(&gossip_truth) - 1000.0).abs() < 1e-6);
        assert_eq!(response.gossip[0].error_estimate, 0.01);
    }

    #[test]
    fn delay_attacker_draws_no_randomness() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let model = AdversaryModel::DelayAttacker {
            extra_delay_ms: 500.0,
        };
        let draw = model.draw(&mut a);
        assert_eq!(draw.extra_delay_ms, 500.0);
        assert!(draw.lie.is_none());
        // The RNG was untouched.
        assert_eq!(a.gen_range(0.0..1.0_f64), b.gen_range(0.0..1.0_f64));
    }

    #[test]
    fn jitter_bomb_spreads_delays_over_the_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = AdversaryModel::JitterBomb {
            max_extra_delay_ms: 300.0,
        };
        let draws: Vec<f64> = (0..200)
            .map(|_| model.draw(&mut rng).extra_delay_ms)
            .collect();
        assert!(draws.iter().all(|&d| (0.0..300.0).contains(&d)));
        assert!(draws.iter().any(|&d| d < 60.0));
        assert!(draws.iter().any(|&d| d > 240.0));
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(liar().draw(&mut a), liar().draw(&mut b));
        }
    }
}
