//! Persisted prefix ledgers (`mrw-ledger-v1`): the one on-disk form of
//! window state, written by `mrw serve --persist` and by `mrw fanout`'s
//! checkpoints.
//!
//! Every number the query layer reports is an exact per-group integer
//! moment over a window of trials. A ledger stores, per group, a sorted
//! list of **cumulative prefix windows** `(hi, Group)`, where each `Group`
//! holds the exact statistics of trials `[0, hi)`. Two writers produce it:
//!
//! * **`mrw serve --persist`** writes one report-cache entry. Its spec is
//!   the entry's *template*: the budget fields that determine trial
//!   outcomes (seed, mode, batch), the largest window the entry holds as
//!   its trial count, and no precision rule (a cache entry serves any
//!   budget of the same key, so one client's stopping rule would be
//!   noise).
//! * **`mrw fanout`** writes a *checkpoint* when a chunk exhausts its
//!   retries. Its spec is the exact resolved spec the run was executing,
//!   precision rule included, and each wave window the run finished is a
//!   prefix window of every group that was active in it. Two fields carry
//!   what a cache entry never has: `frontier`, one merged partial
//!   `mrw-report-v1` per unfinished window (its completed chunks), and
//!   `failures`, the log of what stopped the run. Both are written only
//!   when non-empty, so cache entries keep their bytes. A checkpoint
//!   taken before any window finished has no groups.
//!
//! Both load through [`Ledger::from_json`], and both look up and extend
//! windows through the same methods ([`Ledger::window`],
//! [`Ledger::floor`], [`Ledger::record`]).
//!
//! ## Integrity
//!
//! The FNV-1a fingerprint ([`spec_hash`]) covers the **whole payload** —
//! schema tag, report key, spec, graph, every prefix window, the frontier
//! and the failure log — rendered canonically with the `hash` field
//! removed. A changed digit anywhere in the file fails verification. The
//! stored `report_key` must match the embedded spec's recomputed key, so a
//! ledger can never be replayed against a different experiment, and every
//! frontier report must describe the spec's experiment, cover trials no
//! other frontier report or prefix window covers, and so never count a
//! trial twice. Loaders treat every failure as "refuse this file", never a
//! panic (rule P1).

use super::json::{self, Value};
use super::{Coverage, GraphInfo, Group, QuerySpec, Report};

/// The canonical-JSON schema tag of serialized ledgers.
pub const LEDGER_SCHEMA: &str = "mrw-ledger-v1";

/// FNV-1a 64-bit over a canonical-JSON rendering, as 16 lowercase hex
/// digits. Stable across runs and platforms (pure integer math), and cheap
/// enough to verify on every load. It fingerprints ledger payloads, names
/// ledger files by report key, and names default fanout checkpoint files
/// (`mrw-checkpoint-<hash>.json`) by spec, so two concurrent fanouts of
/// different specs never fight over one path.
pub fn spec_hash(text: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &byte in text.as_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

/// One group's cumulative prefix windows: `prefixes[i] = (hi, Group)`
/// where the `Group` aggregates exactly trials `[0, hi)` of this group,
/// with `hi` strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerGroup {
    /// The group label (`start=0`, `gamma=0.5`, …) — identical to the
    /// `Group` labels inside each window.
    pub label: String,
    /// Sorted cumulative windows; every `Group` covers `[0, hi)`.
    pub prefixes: Vec<(u64, Group)>,
}

/// Persisted window state: the spec it answers, the resolved graph it was
/// measured on, the per-group prefix windows, and — for fanout
/// checkpoints — the frontier and the failure log (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The spec the windows belong to: serve's template or fanout's exact
    /// resolved spec. Everything needed to recompute
    /// [`QuerySpec::report_key`] and to extend the windows.
    pub spec: QuerySpec,
    /// The resolved graph identity reports are labeled with.
    pub graph: GraphInfo,
    /// One ledger per report group, in report group order (empty until a
    /// first window is recorded).
    pub groups: Vec<LedgerGroup>,
    /// One merged partial report per unfinished window, covering trials
    /// past every prefix window.
    pub frontier: Vec<Report>,
    /// Every failure that stopped the run, oldest first.
    pub failures: Vec<String>,
}

impl Ledger {
    /// A ledger for `spec` on `graph` that holds nothing yet.
    pub fn new(spec: QuerySpec, graph: GraphInfo) -> Ledger {
        Ledger {
            spec,
            graph,
            groups: Vec::new(),
            frontier: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// The cache key this ledger belongs to.
    pub fn report_key(&self) -> String {
        self.spec.report_key()
    }

    /// The canonical on-disk file name for this ledger's cache key:
    /// `ledger-<fnv1a(report_key)>.json`. Key-derived (not content-
    /// derived), so updating an entry overwrites its previous file
    /// instead of accumulating stale generations.
    pub fn file_name(&self) -> String {
        format!("ledger-{}.json", spec_hash(&self.report_key()))
    }

    /// Group `idx`'s statistics over trials `[0, hi)`, if the ledger holds
    /// that window.
    pub fn window(&self, idx: usize, hi: u64) -> Option<&Group> {
        let prefixes = &self.groups.get(idx)?.prefixes;
        let pos = prefixes.binary_search_by_key(&hi, |p| p.0).ok()?;
        Some(&prefixes[pos].1)
    }

    /// Group `idx`'s greatest window ending at or before `hi`, as
    /// `(end, statistics)`; `(0, empty group)` when it holds none. Trials
    /// `[end, hi)` are what extending the group to `hi` has to run.
    ///
    /// # Panics
    /// If the ledger has no group `idx`.
    pub fn floor(&self, idx: usize, hi: u64) -> (u64, Group) {
        let group = &self.groups[idx];
        match group.prefixes.partition_point(|p| p.0 <= hi).checked_sub(1) {
            Some(pos) => (group.prefixes[pos].0, group.prefixes[pos].1.clone()),
            None => (0, Group::empty(group.label.clone())),
        }
    }

    /// Records `group` as group `idx`'s statistics over trials `[0, hi)`.
    /// A fixed budget's trial count is raised to cover the window, so the
    /// spec spans every window it holds: serve's template grows with its
    /// largest window, and a fanout spec's windows never pass its budget.
    ///
    /// # Panics
    /// If the ledger has no group `idx`.
    pub fn record(&mut self, idx: usize, hi: u64, group: Group) {
        let prefixes = &mut self.groups[idx].prefixes;
        match prefixes.binary_search_by_key(&hi, |p| p.0) {
            Ok(pos) => prefixes[pos].1 = group,
            Err(pos) => prefixes.insert(pos, (hi, group)),
        }
        self.cover(hi);
    }

    /// Starts the group ledgers from a first window: `groups[i]` is group
    /// `i`'s statistics over trials `[0, hi)`. The first window is where
    /// the group structure becomes known (labels can depend on the graph —
    /// `hmax` derives its candidate pairs from it).
    pub fn open(&mut self, hi: u64, groups: Vec<Group>) {
        self.groups = groups
            .into_iter()
            .map(|g| LedgerGroup {
                label: g.label.clone(),
                prefixes: vec![(hi, g)],
            })
            .collect();
        self.cover(hi);
    }

    fn cover(&mut self, hi: u64) {
        let budget = &mut self.spec.budget;
        if budget.precision.is_none() {
            budget.trials = budget.trials.max(hi as usize);
        }
    }

    /// Where the prefix windows end: the greatest window bound any group
    /// holds, or 0 when none does. A checkpoint's frontier lies past it.
    pub fn prefix_end(&self) -> u64 {
        self.groups
            .iter()
            .filter_map(|g| g.prefixes.last())
            .map(|p| p.0)
            .max()
            .unwrap_or(0)
    }

    /// Whether this ledger can be a report-cache entry. A cache entry
    /// serves any budget of its key from complete prefix windows, so it
    /// carries no precision rule, no frontier and no failure log; a fanout
    /// checkpoint carries at least one of them, and `mrw serve` skips it.
    pub fn check_cache_entry(&self) -> Result<(), String> {
        if self.spec.budget.precision.is_some() {
            return Err("its spec carries a precision rule".into());
        }
        if !self.frontier.is_empty() || !self.failures.is_empty() {
            return Err("it holds a frontier or failure log".into());
        }
        Ok(())
    }

    /// Everything except the `hash` field, in final field order.
    fn payload(&self) -> Value {
        let groups = self.groups.iter().map(|lg| {
            let prefixes = lg.prefixes.iter().map(|(hi, g)| {
                let mut fields = vec![("hi", Value::num(hi))];
                fields.extend(g.stat_fields());
                Value::obj(fields)
            });
            Value::obj(vec![
                ("label", Value::str(&lg.label)),
                ("prefixes", Value::Arr(prefixes.collect())),
            ])
        });
        let mut fields = vec![
            ("schema", Value::str(LEDGER_SCHEMA)),
            ("report_key", Value::str(&self.report_key())),
            ("spec", self.spec.to_value()),
            ("graph", self.graph.to_value()),
            ("groups", Value::Arr(groups.collect())),
        ];
        if !self.frontier.is_empty() {
            let frontier = self.frontier.iter().map(Report::to_value).collect();
            fields.push(("frontier", Value::Arr(frontier)));
        }
        if !self.failures.is_empty() {
            let failures = self.failures.iter().map(|f| Value::str(f)).collect();
            fields.push(("failures", Value::Arr(failures)));
        }
        Value::obj(fields)
    }

    /// Serializes to canonical ledger JSON. The `hash` field is the
    /// FNV-1a fingerprint of the rest of the document (see the module
    /// docs), spliced in right after the schema tag.
    pub fn to_json(&self) -> String {
        let payload = self.payload();
        let hash = spec_hash(&payload.render());
        let Value::Obj(mut fields) = payload else {
            // payload() always builds an object; keep the never-taken
            // arm total instead of panicking (this feeds a daemon).
            return Value::Null.render();
        };
        fields.insert(1, ("hash".to_string(), Value::str(&hash)));
        Value::Obj(fields).render()
    }

    /// Parses and fully validates a ledger document. Any mismatch —
    /// schema tag, payload fingerprint, report key, window ordering,
    /// moment consistency, or a frontier report that is foreign or
    /// overlaps other coverage — is an `Err` describing the first problem
    /// found; callers refuse such files, never abort.
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let v = json::parse(text)?;
        match v.req("schema")?.as_str() {
            Some(LEDGER_SCHEMA) => {}
            _ => return Err(format!("unknown schema (expected {LEDGER_SCHEMA})")),
        }
        let stored_hash = v.req("hash")?.as_str().ok_or("hash must be a string")?;
        let Value::Obj(fields) = &v else {
            return Err("ledger must be an object".into());
        };
        let without_hash = Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "hash")
                .cloned()
                .collect(),
        );
        let expected = spec_hash(&without_hash.render());
        if stored_hash != expected {
            return Err(format!(
                "hash mismatch: ledger says {stored_hash}, payload hashes to {expected} — \
                 the file was edited or truncated"
            ));
        }
        let spec = QuerySpec::from_value(v.req("spec")?)?;
        let stored_key = v
            .req("report_key")?
            .as_str()
            .ok_or("report_key must be a string")?;
        if stored_key != spec.report_key() {
            return Err("report_key does not match the embedded spec".into());
        }
        let graph = GraphInfo::from_value(v.req("graph")?)?;
        let groups = v
            .req("groups")?
            .as_arr()
            .ok_or("groups must be an array")?
            .iter()
            .enumerate()
            .map(|(i, lg)| ledger_group_from_value(lg).map_err(|e| format!("groups[{i}]: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        let optional = |key: &str| match v.get(key) {
            None => Ok(&[][..]),
            Some(items) => items.as_arr().ok_or(format!("{key} must be an array")),
        };
        let frontier = optional("frontier")?
            .iter()
            .enumerate()
            .map(|(i, r)| Report::from_value(r).map_err(|e| format!("frontier[{i}]: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        let failures = optional("failures")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "failures entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ledger = Ledger {
            spec,
            graph,
            groups,
            frontier,
            failures,
        };
        ledger.check_frontier()?;
        Ok(ledger)
    }

    /// Every frontier report is the spec's experiment — its query on the
    /// ledger's graph under its budget, hence over the same trial space —
    /// and no trial is covered twice, by two frontier reports or by a
    /// frontier report and the prefix windows `[0, prefix_end)`.
    fn check_frontier(&self) -> Result<(), String> {
        let end = self.prefix_end() as usize;
        let mut covered = (end > 0).then(|| Coverage::of_range(0..end));
        for (i, report) in self.frontier.iter().enumerate() {
            let (spec, graph) = (&self.spec, &self.graph);
            if report.query != spec.query || report.budget != spec.budget || report.graph != *graph
            {
                return Err(format!("frontier[{i}] is not the spec's experiment"));
            }
            covered = Some(match covered {
                None => report.coverage.clone(),
                Some(c) => c
                    .union(&report.coverage)
                    .map_err(|e| format!("frontier[{i}]: {e}"))?,
            });
        }
        Ok(())
    }
}

fn ledger_group_from_value(v: &Value) -> Result<LedgerGroup, String> {
    let label = v
        .req("label")?
        .as_str()
        .ok_or("label must be a string")?
        .to_string();
    let mut prefixes = Vec::new();
    let mut prev_hi = 0u64;
    for (i, p) in v
        .req("prefixes")?
        .as_arr()
        .ok_or("prefixes must be an array")?
        .iter()
        .enumerate()
    {
        let hi = p.req("hi")?.as_u64().ok_or("hi must be an integer")?;
        if hi == 0 || hi <= prev_hi {
            return Err(format!(
                "prefixes[{i}]: window bound {hi} is not strictly increasing"
            ));
        }
        prev_hi = hi;
        let group =
            Group::from_stat_fields(label.clone(), p).map_err(|e| format!("prefixes[{i}]: {e}"))?;
        if group.trials != hi {
            return Err(format!(
                "prefixes[{i}]: a [0, {hi}) prefix must have dispatched exactly {hi} trials, \
                 not {}",
                group.trials
            ));
        }
        prefixes.push((hi, group));
    }
    if prefixes.is_empty() {
        return Err("a ledger group needs at least one prefix window".into());
    }
    Ok(LedgerGroup { label, prefixes })
}

#[cfg(test)]
mod tests {
    use super::super::{Budget, GraphSpec, Query, Session};
    use super::*;

    fn spec(trials: usize) -> QuerySpec {
        QuerySpec {
            graph: GraphSpec::new("cycle", 16),
            query: Query::Cover {
                k: 2,
                starts: vec![0, 3],
            },
            budget: Budget {
                trials,
                seed: 11,
                ..Budget::default()
            },
        }
    }

    /// A two-window ledger built from real prefix runs.
    fn ledger() -> Ledger {
        let spec = spec(32);
        let g = spec.graph.resolve().unwrap();
        let r16 = Session::new(Budget {
            trials: 16,
            ..spec.budget.clone()
        })
        .run(&g, &spec.query);
        let r32 = Session::new(spec.budget.clone()).run(&g, &spec.query);
        let groups = r16
            .groups
            .iter()
            .zip(&r32.groups)
            .map(|(a, b)| LedgerGroup {
                label: a.label.clone(),
                prefixes: vec![(16, a.clone()), (32, b.clone())],
            })
            .collect();
        Ledger {
            groups,
            ..Ledger::new(spec, r32.graph)
        }
    }

    /// Trials `lo..hi` of `spec` as a partial report.
    fn partial(spec: &QuerySpec, lo: usize, hi: usize) -> Report {
        let g = spec.graph.resolve().unwrap();
        Session::new(spec.budget.clone())
            .with_range(lo..hi)
            .run(&g, &spec.query)
    }

    /// A fanout checkpoint of a 64-trial run: windows to 32, completed
    /// chunks `[32, 40)` and `[48, 64)` on the frontier, one failure.
    fn checkpoint() -> Ledger {
        let mut l = ledger();
        l.spec.budget.trials = 64;
        l.frontier = vec![partial(&l.spec, 32, 40), partial(&l.spec, 48, 64)];
        l.failures = vec!["worker for trials 40..48 died (signal: 9)".into()];
        l
    }

    #[test]
    fn spec_hash_is_stable_and_input_sensitive() {
        let a = spec_hash("{\"graph\":1}");
        assert_eq!(a.len(), 16);
        assert_eq!(a, spec_hash("{\"graph\":1}"));
        assert_ne!(a, spec_hash("{\"graph\":2}"));
    }

    #[test]
    fn round_trips_byte_identically() {
        let l = ledger();
        let text = l.to_json();
        let back = Ledger::from_json(&text).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.report_key(), l.spec.report_key());
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let ck = checkpoint();
        let text = ck.to_json();
        let back = Ledger::from_json(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.prefix_end(), 32);
        // The checkpoint-only fields are written only when non-empty.
        assert!(text.contains("\"frontier\"") && text.contains("\"failures\""));
        let plain = ledger().to_json();
        assert!(!plain.contains("\"frontier\"") && !plain.contains("\"failures\""));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let l = ledger();
        let ck = Ledger {
            failures: vec!["trials 0..16 failed 1 attempt(s)".into()],
            ..Ledger::new(spec(32), l.graph)
        };
        let back = Ledger::from_json(&ck.to_json()).unwrap();
        assert_eq!(back, ck);
        assert!(back.groups.is_empty());
        assert_eq!(back.prefix_end(), 0);
    }

    #[test]
    fn windows_are_looked_up_floored_and_recorded() {
        let mut l = ledger();
        assert_eq!(l.window(0, 16).map(|g| g.trials), Some(16));
        assert_eq!(l.window(0, 20), None);
        assert_eq!(l.window(9, 16), None);
        assert_eq!(l.floor(0, 20).0, 16);
        assert_eq!(l.floor(0, 32).0, 32);
        assert_eq!(l.floor(0, 8), (0, Group::empty(l.groups[0].label.clone())));
        // Recording past a fixed budget raises its trial count.
        let (lo, base) = l.floor(1, 48);
        let delta = partial(&spec(48), lo as usize, 48).groups[1].clone();
        l.record(1, 48, base.merge(&delta));
        assert_eq!(l.window(1, 48).map(|g| g.trials), Some(48));
        assert_eq!(l.spec.budget.trials, 48);
        assert_eq!(l.prefix_end(), 48);
        assert_eq!(Ledger::from_json(&l.to_json()).unwrap(), l);
    }

    #[test]
    fn file_name_is_key_derived() {
        let l = ledger();
        assert_eq!(
            l.file_name(),
            format!("ledger-{}.json", spec_hash(&l.report_key()))
        );
        // Same key at a different trial count → same file.
        let mut bigger = l.clone();
        bigger.spec.budget.trials = 64;
        assert_eq!(bigger.file_name(), l.file_name());
    }

    #[test]
    fn tampered_moments_are_rejected() {
        let l = ledger();
        let text = l.to_json();
        let needle = format!("\"sum\": {}", l.groups[0].prefixes[0].1.moments.sum());
        let bumped = format!("\"sum\": {}", l.groups[0].prefixes[0].1.moments.sum() + 1);
        let tampered = text.replacen(&needle, &bumped, 1);
        assert_ne!(tampered, text, "tamper target must exist");
        let err = Ledger::from_json(&tampered).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn tampered_spec_is_rejected() {
        let text = checkpoint().to_json();
        let tampered = text.replace("\"seed\": 11", "\"seed\": 12");
        assert_ne!(tampered, text, "tamper target must exist");
        let err = Ledger::from_json(&tampered).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn truncation_and_schema_skew_are_rejected() {
        let text = ledger().to_json();
        assert!(Ledger::from_json(&text[..text.len() / 2]).is_err());
        let skewed = text.replace(LEDGER_SCHEMA, "mrw-ledger-v0");
        assert!(Ledger::from_json(&skewed)
            .unwrap_err()
            .contains("unknown schema"));
    }

    #[test]
    fn non_increasing_windows_are_rejected() {
        let mut l = ledger();
        l.groups[0].prefixes.swap(0, 1);
        let err = Ledger::from_json(&l.to_json()).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn window_trials_must_match_the_bound() {
        let mut l = ledger();
        l.groups[0].prefixes[0].0 = 15; // Group still holds 16 trials.
        let err = Ledger::from_json(&l.to_json()).unwrap_err();
        assert!(err.contains("dispatched exactly"), "{err}");
    }

    #[test]
    fn overlapping_frontier_coverage_is_rejected() {
        let mut ck = checkpoint();
        ck.frontier[1] = partial(&ck.spec, 36, 48);
        let err = Ledger::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("counted twice"), "{err}");
        // Trials a prefix window already holds cannot sit on the frontier.
        let mut ck = checkpoint();
        ck.frontier[0] = partial(&ck.spec, 24, 40);
        let err = Ledger::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("trials [24, 32) are counted twice"), "{err}");
    }

    #[test]
    fn frontier_from_a_different_experiment_is_rejected() {
        let mut ck = checkpoint();
        let mut other = ck.spec.clone();
        other.budget.seed = 99;
        ck.frontier = vec![partial(&other, 32, 40)];
        let err = Ledger::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("not the spec's experiment"), "{err}");
    }

    #[test]
    fn precision_bearing_specs_are_rejected() {
        use mrw_stats::Precision;
        // A checkpoint may carry its run's precision rule; a cache entry
        // may not.
        let mut l = ledger();
        assert_eq!(l.check_cache_entry(), Ok(()));
        l.spec.budget.precision = Some(Precision::absolute(1.0));
        let back = Ledger::from_json(&l.to_json()).unwrap();
        let err = back.check_cache_entry().unwrap_err();
        assert!(err.contains("precision"), "{err}");
        assert!(checkpoint().check_cache_entry().is_err());
    }
}
