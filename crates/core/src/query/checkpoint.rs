//! Resumable fanout checkpoints (`mrw-checkpoint-v1`).
//!
//! When `mrw fanout` exhausts a chunk's retry budget it does not have to
//! throw away the trials that *did* finish: every completed chunk is an
//! exact, mergeable shard [`Report`], so the driver can freeze its whole
//! scheduling state into a canonical-JSON checkpoint and a later
//! `mrw resume checkpoint.json` can finish the run **byte-identically**
//! to an unfailed `mrw run`.
//!
//! ## Why per-wave reports, not one merged report
//!
//! A fixed budget needs only one partial report — its coverage holes say
//! exactly which trial ranges still have to run. An adaptive budget is
//! subtler: the driver folds each wave's moments into per-group prefix
//! accumulators and retires groups between waves, and that fold cannot be
//! reconstructed from a single merged report (moments aggregate globally,
//! they do not split back into wave slices). The checkpoint therefore
//! stores one (possibly partial) report **per wave window**, in wave
//! order; resume replays the wave loop from wave 0 — recomputing active
//! sets from the stopping rule rather than trusting the file — and
//! dispatches only the sub-ranges [`Coverage::missing_within`] reports
//! for each window.
//!
//! ## Integrity
//!
//! The spec is embedded verbatim *and* fingerprinted: `spec_hash` is the
//! FNV-1a 64-bit hash of the spec's canonical JSON, verified on load, so
//! a hand-edited spec (which would silently change what "the same bytes"
//! means) is rejected instead of resumed. Each wave report must also
//! describe the same experiment as the spec (same query, same budget
//! seed/trials), and wave coverages must be pairwise disjoint.

use super::json::{self, Value};
use super::{Coverage, QuerySpec, Report};

/// The canonical-JSON schema tag of serialized checkpoints.
pub const CHECKPOINT_SCHEMA: &str = "mrw-checkpoint-v1";

/// FNV-1a 64-bit over a canonical-JSON spec rendering, as 16 lowercase
/// hex digits. Stable across runs and platforms (pure integer math), and
/// cheap enough to verify on every load. This also names default
/// checkpoint files (`mrw-checkpoint-<hash>.json`), so two concurrent
/// fanouts of different specs never fight over one path.
pub fn spec_hash(spec_json: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &byte in spec_json.as_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

/// A frozen partial fanout run: the spec it was executing, the failure
/// log that stopped it, and one merged (possibly partial) shard report
/// per dispatched wave window. See the module docs for the schema
/// rationale; [`Checkpoint::to_json`] / [`Checkpoint::from_json`] are a
/// lossless canonical round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The resolved spec the interrupted run was executing (budget
    /// overrides already applied — resume must not re-apply any).
    pub spec: QuerySpec,
    /// Every failure the driver observed, newest last.
    pub failures: Vec<String>,
    /// Merged completed-chunk reports in wave order. Fixed budgets have
    /// a single wave window `[0, cap)`; adaptive budgets one window per
    /// dispatched wave. Waves with no completed chunks are omitted, so
    /// this may be empty (a run that failed before any chunk finished).
    pub waves: Vec<Report>,
}

impl Checkpoint {
    /// The fingerprint of the embedded spec (see [`spec_hash`]).
    pub fn spec_hash(&self) -> String {
        spec_hash(&self.spec.to_json())
    }

    /// Total trial indices covered by the saved waves.
    pub fn covered_trials(&self) -> u64 {
        self.waves.iter().map(|r| r.coverage.covered_trials()).sum()
    }

    /// Serializes to canonical checkpoint JSON (equal checkpoints render
    /// byte-identically, like every other schema in this module).
    pub fn to_json(&self) -> String {
        Value::obj(vec![
            ("schema", Value::str(CHECKPOINT_SCHEMA)),
            ("spec_hash", Value::str(&self.spec_hash())),
            ("spec", self.spec.to_value()),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| Value::str(f)).collect()),
            ),
            (
                "waves",
                Value::Arr(self.waves.iter().map(|r| r.to_value()).collect()),
            ),
        ])
        .render()
    }

    /// Parses and *validates* a checkpoint: schema tag, spec fingerprint,
    /// per-wave experiment identity against the embedded spec, and
    /// pairwise-disjoint wave coverage (overlap would double-count trials
    /// on resume exactly as it would in a merge).
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v = json::parse(text)?;
        match v.req("schema")?.as_str() {
            Some(CHECKPOINT_SCHEMA) => {}
            _ => return Err(format!("unknown schema (expected {CHECKPOINT_SCHEMA})")),
        }
        let spec = QuerySpec::from_value(v.req("spec")?)?;
        let expected = spec_hash(&spec.to_json());
        let stored = v
            .req("spec_hash")?
            .as_str()
            .ok_or("spec_hash must be a string")?;
        if stored != expected {
            return Err(format!(
                "spec_hash mismatch: checkpoint says {stored}, embedded spec hashes to \
                 {expected} — the checkpoint or its spec was edited"
            ));
        }
        let failures = v
            .req("failures")?
            .as_arr()
            .ok_or("failures must be an array")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "failures entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let waves = v
            .req("waves")?
            .as_arr()
            .ok_or("waves must be an array")?
            .iter()
            .enumerate()
            .map(|(i, w)| Report::from_value(w).map_err(|e| format!("waves[{i}]: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        let cap = spec.budget.trials_budget().cap() as u64;
        let mut union: Option<Coverage> = None;
        for (i, wave) in waves.iter().enumerate() {
            if wave.query != spec.query {
                return Err(format!(
                    "waves[{i}] answers a different query than the spec"
                ));
            }
            if wave.budget != spec.budget {
                return Err(format!("waves[{i}] ran a different budget than the spec"));
            }
            if wave.trial_space() != cap {
                return Err(format!("waves[{i}] covers a different trial space"));
            }
            union = Some(match union {
                None => wave.coverage.clone(),
                Some(u) => u
                    .union(&wave.coverage)
                    .map_err(|e| format!("waves[{i}]: {e}"))?,
            });
        }
        Ok(Checkpoint {
            spec,
            failures,
            waves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Budget, GraphSpec, Query, Session};
    use super::*;

    fn spec() -> QuerySpec {
        QuerySpec {
            graph: GraphSpec::new("cycle", 16),
            query: Query::Cover {
                k: 2,
                starts: vec![0],
            },
            budget: Budget {
                trials: 32,
                seed: 11,
                ..Budget::default()
            },
        }
    }

    fn partial_report(spec: &QuerySpec, lo: usize, hi: usize) -> Report {
        let g = spec.graph.resolve().unwrap();
        Session::new(spec.budget.clone())
            .with_range(lo..hi)
            .run(&g, &spec.query)
    }

    #[test]
    fn spec_hash_is_stable_and_input_sensitive() {
        let a = spec_hash("{\"graph\":1}");
        assert_eq!(a.len(), 16);
        assert_eq!(a, spec_hash("{\"graph\":1}"));
        assert_ne!(a, spec_hash("{\"graph\":2}"));
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let spec = spec();
        let ck = Checkpoint {
            failures: vec!["worker for trials 8..16 died (signal: 9)".into()],
            waves: vec![partial_report(&spec, 0, 8), partial_report(&spec, 16, 32)],
            spec,
        };
        let text = ck.to_json();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.covered_trials(), 24);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint {
            spec: spec(),
            failures: Vec::new(),
            waves: Vec::new(),
        };
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.covered_trials(), 0);
    }

    #[test]
    fn tampered_spec_is_rejected() {
        let spec = spec();
        let text = Checkpoint {
            spec,
            failures: Vec::new(),
            waves: Vec::new(),
        }
        .to_json();
        let tampered = text.replace("\"seed\": 11", "\"seed\": 12");
        assert_ne!(tampered, text, "tamper target must exist");
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("spec_hash mismatch"), "{err}");
    }

    #[test]
    fn overlapping_wave_coverage_is_rejected() {
        let spec = spec();
        let text = Checkpoint {
            failures: Vec::new(),
            waves: vec![partial_report(&spec, 0, 8), partial_report(&spec, 4, 12)],
            spec,
        }
        .to_json();
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(err.contains("counted twice"), "{err}");
    }

    #[test]
    fn wave_from_a_different_experiment_is_rejected() {
        let spec = spec();
        let mut other = spec.clone();
        other.budget.seed = 99;
        let text = Checkpoint {
            failures: Vec::new(),
            waves: vec![partial_report(&other, 0, 8)],
            spec,
        }
        .to_json();
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(err.contains("different budget"), "{err}");
    }
}
