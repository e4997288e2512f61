//! The typed event vocabulary every instrumented layer speaks.
//!
//! Events are deliberately flat and self-describing — plain numbers and
//! strings, no workspace types — so the telemetry crate sits at the bottom
//! of the dependency graph and a JSONL stream is readable without the
//! producing binary.  Every variant round-trips through
//! [`TelemetryEvent::to_json`] / [`TelemetryEvent::from_json`]
//! (property-tested in `tests/telemetry.rs`).

use crate::json::Json;

/// One structured runtime event.
///
/// All variants except [`TelemetryEvent::ShardCompleted`] describe
/// *deterministic* facts of a run: their counts are bit-identical across
/// repeated runs and across thread counts.  `ShardCompleted` carries a wall
/// clock and belongs to the explicitly non-deterministic section of any
/// aggregate (see [`crate::RegistryRecorder`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// The full photonic solver ran for one `(scheme, BER, temperature)`
    /// triple — the expensive path the operating-point cache exists to
    /// avoid.
    SolverInvoked {
        /// Coding scheme that was solved.
        scheme: String,
        /// Decoded-BER target of the solve.
        target_ber: f64,
        /// Chip temperature of the solve, in °C.
        temperature_c: f64,
        /// Whether a feasible operating point exists there.
        feasible: bool,
    },
    /// A memoized operating-point query was answered from the cache.
    CacheHit {
        /// `ThermalLinkStack::fingerprint` component of the cache key (the
        /// chip instance the entry belongs to).
        fingerprint: u64,
        /// Coding scheme of the query.
        scheme: String,
        /// Bucket-snapped temperature of the query, in °C.
        temperature_c: f64,
    },
    /// A memoized operating-point query missed and fell through to the
    /// solver.
    CacheMiss {
        /// Stack fingerprint component of the cache key.
        fingerprint: u64,
        /// Coding scheme of the query.
        scheme: String,
        /// Bucket-snapped temperature of the query, in °C.
        temperature_c: f64,
    },
    /// The runtime manager answered (or failed to answer) one configuration
    /// request.
    DecisionResolved {
        /// Traffic class of the request.
        class: String,
        /// Temperature the request was served at, in °C.
        temperature_c: f64,
        /// Scheme of the selected operating point; `None` when no candidate
        /// satisfied the constraints (an infeasible request).
        scheme: Option<String>,
    },
    /// A destination channel changed coding scheme.
    SchemeSwitched {
        /// Destination ONI whose channel switched.
        oni: u64,
        /// Scheme before the switch.
        from: String,
        /// Scheme after the switch.
        to: String,
        /// Simulated time of the switch, in nanoseconds.
        time_ns: f64,
        /// Channel temperature that triggered the re-decision, in °C.
        temperature_c: f64,
        /// Epoch whose boundary took the decision (`None` per-message).
        epoch: Option<u64>,
    },
    /// The epoch-gated engine finished one epoch, with the fleet's
    /// temperature envelope.
    EpochAdvanced {
        /// Epoch index (0-based).
        epoch: u64,
        /// End of the epoch, in nanoseconds.
        time_ns: f64,
        /// Coolest node temperature, in °C.
        min_temperature_c: f64,
        /// Hottest node temperature, in °C.
        max_temperature_c: f64,
        /// Destination channels currently off their baseline scheme.
        reconfigured_onis: u64,
    },
    /// The design-time wavelength assigner evaluated one candidate (a
    /// rotation, the greedy matching, or one refinement pass).
    AssignmentSearchStep {
        /// Which stage produced the candidate: `rotation`, `greedy`,
        /// `refine-pass`, or `guard` (the final never-worse-than-identity
        /// check).
        stage: String,
        /// Predicted total heater power of the candidate, in µW.
        candidate_cost_uw: f64,
        /// Whether the candidate was adopted (for `refine-pass`: whether the
        /// pass applied at least one improving swap).
        accepted: bool,
        /// Refinement swaps applied in this step (0 outside `refine-pass`).
        swaps_applied: u64,
    },
    /// The scenario router resolved one flow's route over the configured
    /// fabric topology (emitted once per ordered node pair at prepare
    /// time).
    RouteResolved {
        /// Source node of the flow.
        source: u64,
        /// Destination node of the flow.
        destination: u64,
        /// Total hops on the resolved route.
        hops: u64,
        /// Electrical fallback hops among them.
        electrical_hops: u64,
    },
    /// A message finished traversing one hop of its multi-hop route
    /// (emitted by the epoch-gated engine when a topology is configured).
    HopTraversed {
        /// Message identifier.
        message: u64,
        /// Node the hop arrived at.
        node: u64,
        /// 0-based position of the hop on the message's route.
        hop_index: u64,
        /// Whether the hop rode an electrical fallback wire.
        electrical: bool,
        /// Simulated completion time of the hop, in nanoseconds.
        time_ns: f64,
    },
    /// The epoch-gated engine crossed into a new workload-schedule phase
    /// at an epoch boundary.
    PhaseEntered {
        /// 0-based index of the phase being entered.
        phase: u64,
        /// Scheduled start of the phase, in nanoseconds (the epoch edge it
        /// lands on).
        time_ns: f64,
        /// Index of the first epoch played inside the new phase.
        epoch: u64,
    },
    /// One ONI's wavelength assignment was swapped hitlessly at a phase
    /// boundary (in-flight transfers complete on their granted operating
    /// points; the new mapping applies from the next grant).
    AssignmentSwapped {
        /// Destination ONI whose assignment changed.
        oni: u64,
        /// Phase whose design assignment is now active.
        phase: u64,
        /// Fingerprint of the assignment being retired.
        from_fingerprint: u64,
        /// Fingerprint of the assignment taking over.
        to_fingerprint: u64,
        /// Simulated time of the swap, in nanoseconds.
        time_ns: f64,
        /// Index of the first epoch played under the new assignment.
        epoch: u64,
    },
    /// One `parallel_map` worker finished its chunk.  **Wall-clock data** —
    /// explicitly non-deterministic, never counted with the deterministic
    /// metrics.
    ShardCompleted {
        /// What was being sharded (the caller's label).
        label: String,
        /// Shard index within the call.
        shard: u64,
        /// Work items the shard processed.
        items: u64,
        /// Wall-clock duration of the shard, in microseconds.
        wall_micros: u64,
    },
}

impl TelemetryEvent {
    /// The snake-case discriminant used as the JSON `type` tag and in
    /// per-event counter names.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::SolverInvoked { .. } => "solver_invoked",
            Self::CacheHit { .. } => "cache_hit",
            Self::CacheMiss { .. } => "cache_miss",
            Self::DecisionResolved { .. } => "decision_resolved",
            Self::SchemeSwitched { .. } => "scheme_switched",
            Self::EpochAdvanced { .. } => "epoch_advanced",
            Self::AssignmentSearchStep { .. } => "assignment_search_step",
            Self::RouteResolved { .. } => "route_resolved",
            Self::HopTraversed { .. } => "hop_traversed",
            Self::PhaseEntered { .. } => "phase_entered",
            Self::AssignmentSwapped { .. } => "assignment_swapped",
            Self::ShardCompleted { .. } => "shard_completed",
        }
    }

    /// `true` for events carrying wall-clock measurements, which must stay
    /// out of deterministic aggregates.
    #[must_use]
    pub fn is_wall_clock(&self) -> bool {
        matches!(self, Self::ShardCompleted { .. })
    }

    /// One exemplar per variant (schema tests iterate the whole vocabulary
    /// without hand-maintaining a list at every call site).
    #[must_use]
    pub fn examples() -> Vec<Self> {
        vec![
            Self::SolverInvoked {
                scheme: "Hamming(71,64)".into(),
                target_ber: 1e-11,
                temperature_c: 55.0,
                feasible: true,
            },
            Self::CacheHit {
                fingerprint: 0xDEAD_BEEF,
                scheme: "Uncoded".into(),
                temperature_c: 25.0,
            },
            Self::CacheMiss {
                fingerprint: 42,
                scheme: "Hamming(7,4)".into(),
                temperature_c: 85.0,
            },
            Self::DecisionResolved {
                class: "LatencyFirst".into(),
                temperature_c: 61.5,
                scheme: Some("Hamming(71,64)".into()),
            },
            Self::DecisionResolved {
                class: "RealTime".into(),
                temperature_c: 85.0,
                scheme: None,
            },
            Self::SchemeSwitched {
                oni: 3,
                from: "Uncoded".into(),
                to: "Hamming(71,64)".into(),
                time_ns: 325.0,
                temperature_c: 53.2,
                epoch: Some(12),
            },
            Self::SchemeSwitched {
                oni: 0,
                from: "Hamming(7,4)".into(),
                to: "Uncoded".into(),
                time_ns: 10.0,
                temperature_c: 25.0,
                epoch: None,
            },
            Self::EpochAdvanced {
                epoch: 12,
                time_ns: 325.0,
                min_temperature_c: 24.9,
                max_temperature_c: 53.2,
                reconfigured_onis: 6,
            },
            Self::AssignmentSearchStep {
                stage: "refine-pass".into(),
                candidate_cost_uw: 812.5,
                accepted: true,
                swaps_applied: 4,
            },
            Self::RouteResolved {
                source: 1,
                destination: 6,
                hops: 3,
                electrical_hops: 1,
            },
            Self::HopTraversed {
                message: 17,
                node: 4,
                hop_index: 1,
                electrical: true,
                time_ns: 86.5,
            },
            Self::PhaseEntered {
                phase: 2,
                time_ns: 500.0,
                epoch: 20,
            },
            Self::AssignmentSwapped {
                oni: 5,
                phase: 2,
                from_fingerprint: 0xFEED_FACE_CAFE_BEEF,
                to_fingerprint: 77,
                time_ns: 500.0,
                epoch: 20,
            },
            Self::ShardCompleted {
                label: "epoch-reask".into(),
                shard: 1,
                items: 6,
                wall_micros: 1234,
            },
        ]
    }

    /// Serializes the event to a JSON object with a `type` tag.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![("type", self.kind().into())];
        match self {
            Self::SolverInvoked {
                scheme,
                target_ber,
                temperature_c,
                feasible,
            } => {
                fields.push(("scheme", scheme.as_str().into()));
                fields.push(("target_ber", (*target_ber).into()));
                fields.push(("temperature_c", (*temperature_c).into()));
                fields.push(("feasible", (*feasible).into()));
            }
            Self::CacheHit {
                fingerprint,
                scheme,
                temperature_c,
            }
            | Self::CacheMiss {
                fingerprint,
                scheme,
                temperature_c,
            } => {
                // Fingerprints use the full u64 range; split into two 32-bit
                // halves so the f64-backed number model stays exact.
                fields.push(("fingerprint_hi", (fingerprint >> 32).into()));
                fields.push(("fingerprint_lo", (fingerprint & 0xFFFF_FFFF).into()));
                fields.push(("scheme", scheme.as_str().into()));
                fields.push(("temperature_c", (*temperature_c).into()));
            }
            Self::DecisionResolved {
                class,
                temperature_c,
                scheme,
            } => {
                fields.push(("class", class.as_str().into()));
                fields.push(("temperature_c", (*temperature_c).into()));
                fields.push((
                    "scheme",
                    scheme.as_ref().map_or(Json::Null, |s| s.as_str().into()),
                ));
            }
            Self::SchemeSwitched {
                oni,
                from,
                to,
                time_ns,
                temperature_c,
                epoch,
            } => {
                fields.push(("oni", (*oni).into()));
                fields.push(("from", from.as_str().into()));
                fields.push(("to", to.as_str().into()));
                fields.push(("time_ns", (*time_ns).into()));
                fields.push(("temperature_c", (*temperature_c).into()));
                fields.push(("epoch", epoch.map_or(Json::Null, Json::from)));
            }
            Self::EpochAdvanced {
                epoch,
                time_ns,
                min_temperature_c,
                max_temperature_c,
                reconfigured_onis,
            } => {
                fields.push(("epoch", (*epoch).into()));
                fields.push(("time_ns", (*time_ns).into()));
                fields.push(("min_temperature_c", (*min_temperature_c).into()));
                fields.push(("max_temperature_c", (*max_temperature_c).into()));
                fields.push(("reconfigured_onis", (*reconfigured_onis).into()));
            }
            Self::AssignmentSearchStep {
                stage,
                candidate_cost_uw,
                accepted,
                swaps_applied,
            } => {
                fields.push(("stage", stage.as_str().into()));
                fields.push(("candidate_cost_uw", (*candidate_cost_uw).into()));
                fields.push(("accepted", (*accepted).into()));
                fields.push(("swaps_applied", (*swaps_applied).into()));
            }
            Self::RouteResolved {
                source,
                destination,
                hops,
                electrical_hops,
            } => {
                fields.push(("source", (*source).into()));
                fields.push(("destination", (*destination).into()));
                fields.push(("hops", (*hops).into()));
                fields.push(("electrical_hops", (*electrical_hops).into()));
            }
            Self::HopTraversed {
                message,
                node,
                hop_index,
                electrical,
                time_ns,
            } => {
                fields.push(("message", (*message).into()));
                fields.push(("node", (*node).into()));
                fields.push(("hop_index", (*hop_index).into()));
                fields.push(("electrical", (*electrical).into()));
                fields.push(("time_ns", (*time_ns).into()));
            }
            Self::PhaseEntered {
                phase,
                time_ns,
                epoch,
            } => {
                fields.push(("phase", (*phase).into()));
                fields.push(("time_ns", (*time_ns).into()));
                fields.push(("epoch", (*epoch).into()));
            }
            Self::AssignmentSwapped {
                oni,
                phase,
                from_fingerprint,
                to_fingerprint,
                time_ns,
                epoch,
            } => {
                fields.push(("oni", (*oni).into()));
                fields.push(("phase", (*phase).into()));
                // Same exactness split as the cache fingerprints above.
                fields.push(("from_fingerprint_hi", (from_fingerprint >> 32).into()));
                fields.push((
                    "from_fingerprint_lo",
                    (from_fingerprint & 0xFFFF_FFFF).into(),
                ));
                fields.push(("to_fingerprint_hi", (to_fingerprint >> 32).into()));
                fields.push(("to_fingerprint_lo", (to_fingerprint & 0xFFFF_FFFF).into()));
                fields.push(("time_ns", (*time_ns).into()));
                fields.push(("epoch", (*epoch).into()));
            }
            Self::ShardCompleted {
                label,
                shard,
                items,
                wall_micros,
            } => {
                fields.push(("label", label.as_str().into()));
                fields.push(("shard", (*shard).into()));
                fields.push(("items", (*items).into()));
                fields.push(("wall_micros", (*wall_micros).into()));
            }
        }
        Json::obj(fields)
    }

    /// Parses an event back from its [`TelemetryEvent::to_json`] form.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or("event object lacks a string `type` tag")?;
        let str_field = |name: &str| -> Result<String, String> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("`{kind}` lacks string field `{name}`"))
        };
        let f64_field = |name: &str| -> Result<f64, String> {
            json.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("`{kind}` lacks number field `{name}`"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("`{kind}` lacks integer field `{name}`"))
        };
        let bool_field = |name: &str| -> Result<bool, String> {
            json.get(name)
                .and_then(Json::as_bool)
                .ok_or(format!("`{kind}` lacks boolean field `{name}`"))
        };
        let fingerprint = || -> Result<u64, String> {
            Ok((u64_field("fingerprint_hi")? << 32) | u64_field("fingerprint_lo")?)
        };
        match kind {
            "solver_invoked" => Ok(Self::SolverInvoked {
                scheme: str_field("scheme")?,
                target_ber: f64_field("target_ber")?,
                temperature_c: f64_field("temperature_c")?,
                feasible: bool_field("feasible")?,
            }),
            "cache_hit" => Ok(Self::CacheHit {
                fingerprint: fingerprint()?,
                scheme: str_field("scheme")?,
                temperature_c: f64_field("temperature_c")?,
            }),
            "cache_miss" => Ok(Self::CacheMiss {
                fingerprint: fingerprint()?,
                scheme: str_field("scheme")?,
                temperature_c: f64_field("temperature_c")?,
            }),
            "decision_resolved" => Ok(Self::DecisionResolved {
                class: str_field("class")?,
                temperature_c: f64_field("temperature_c")?,
                scheme: match json.get("scheme") {
                    Some(Json::Null) | None => None,
                    Some(value) => Some(
                        value
                            .as_str()
                            .map(str::to_owned)
                            .ok_or("`decision_resolved` scheme must be a string or null")?,
                    ),
                },
            }),
            "scheme_switched" => Ok(Self::SchemeSwitched {
                oni: u64_field("oni")?,
                from: str_field("from")?,
                to: str_field("to")?,
                time_ns: f64_field("time_ns")?,
                temperature_c: f64_field("temperature_c")?,
                epoch: match json.get("epoch") {
                    Some(Json::Null) | None => None,
                    Some(value) => Some(
                        value
                            .as_u64()
                            .ok_or("`scheme_switched` epoch must be an integer or null")?,
                    ),
                },
            }),
            "epoch_advanced" => Ok(Self::EpochAdvanced {
                epoch: u64_field("epoch")?,
                time_ns: f64_field("time_ns")?,
                min_temperature_c: f64_field("min_temperature_c")?,
                max_temperature_c: f64_field("max_temperature_c")?,
                reconfigured_onis: u64_field("reconfigured_onis")?,
            }),
            "assignment_search_step" => Ok(Self::AssignmentSearchStep {
                stage: str_field("stage")?,
                candidate_cost_uw: f64_field("candidate_cost_uw")?,
                accepted: bool_field("accepted")?,
                swaps_applied: u64_field("swaps_applied")?,
            }),
            "route_resolved" => Ok(Self::RouteResolved {
                source: u64_field("source")?,
                destination: u64_field("destination")?,
                hops: u64_field("hops")?,
                electrical_hops: u64_field("electrical_hops")?,
            }),
            "hop_traversed" => Ok(Self::HopTraversed {
                message: u64_field("message")?,
                node: u64_field("node")?,
                hop_index: u64_field("hop_index")?,
                electrical: bool_field("electrical")?,
                time_ns: f64_field("time_ns")?,
            }),
            "phase_entered" => Ok(Self::PhaseEntered {
                phase: u64_field("phase")?,
                time_ns: f64_field("time_ns")?,
                epoch: u64_field("epoch")?,
            }),
            "assignment_swapped" => Ok(Self::AssignmentSwapped {
                oni: u64_field("oni")?,
                phase: u64_field("phase")?,
                from_fingerprint: (u64_field("from_fingerprint_hi")? << 32)
                    | u64_field("from_fingerprint_lo")?,
                to_fingerprint: (u64_field("to_fingerprint_hi")? << 32)
                    | u64_field("to_fingerprint_lo")?,
                time_ns: f64_field("time_ns")?,
                epoch: u64_field("epoch")?,
            }),
            "shard_completed" => Ok(Self::ShardCompleted {
                label: str_field("label")?,
                shard: u64_field("shard")?,
                items: u64_field("items")?,
                wall_micros: u64_field("wall_micros")?,
            }),
            other => Err(format!("unknown event type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in TelemetryEvent::examples() {
            let rendered = event.to_json().render();
            let parsed = TelemetryEvent::from_json(&Json::parse(&rendered).unwrap())
                .unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(parsed, event, "{rendered}");
        }
    }

    #[test]
    fn kinds_are_distinct_and_tagged() {
        let examples = TelemetryEvent::examples();
        let kinds: std::collections::HashSet<_> = examples.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), 12, "one kind per variant");
        for event in &examples {
            assert_eq!(
                event.to_json().get("type").and_then(Json::as_str),
                Some(event.kind())
            );
        }
    }

    #[test]
    fn only_shard_completions_carry_wall_clocks() {
        for event in TelemetryEvent::examples() {
            assert_eq!(
                event.is_wall_clock(),
                matches!(event, TelemetryEvent::ShardCompleted { .. })
            );
        }
    }

    #[test]
    fn full_range_fingerprints_survive_the_number_model() {
        let event = TelemetryEvent::CacheHit {
            fingerprint: u64::MAX - 7,
            scheme: "Uncoded".into(),
            temperature_c: 25.0,
        };
        let json = Json::parse(&event.to_json().render()).unwrap();
        assert_eq!(TelemetryEvent::from_json(&json).unwrap(), event);
    }

    #[test]
    fn malformed_events_are_rejected_with_context() {
        let err = TelemetryEvent::from_json(&Json::parse(r#"{"type":"cache_hit"}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("cache_hit"), "{err}");
        assert!(
            TelemetryEvent::from_json(&Json::parse(r#"{"type":"warp_drive"}"#).unwrap())
                .unwrap_err()
                .contains("warp_drive")
        );
        assert!(TelemetryEvent::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
