//! JSONL serialization of [`RouteTrace`]s.
//!
//! One JSON object per line, hand-rolled (the workspace is hermetic —
//! no serde). Every value is a number or one of the fixed snake_case
//! labels from `bgr_core::probe`, so no string escaping is needed. The
//! line order is: one `meta` record, the deterministic `event` records
//! in emission order, the `counter` and `hist` diagnostics, then the
//! wall-clock `span` records. Because events carry no wall-clock, the
//! event prefix of two traces of the same input diffs clean even across
//! machines; only `span.wall_us` varies.
//!
//! Schema (`format` is bumped on breaking changes):
//!
//! ```text
//! {"type":"meta","format":"bgr-trace","version":1,"events":N}
//! {"type":"event","seq":0,"kind":"phase_enter","phase":"feed_assign"}
//! {"type":"event","seq":7,"kind":"deletion_selected","net":3,"edge":9,"tier":"d_max"}
//! {"type":"counter","name":"key_evals","value":1234}
//! {"type":"hist","name":"dirty_set_size","buckets":[0,5,3,0,0,0,0,0]}
//! {"type":"span","phase":"initial_routing","wall_us":8123,"events":152,"counters":{...}}
//! ```

use std::fmt::Write as _;

use bgr_core::probe::{Counter, Hist, RouteTrace, TraceEvent, HIST_BUCKETS};

use crate::json::Json;

fn write_event(out: &mut String, seq: usize, ev: &TraceEvent) {
    let _ = write!(out, "{{\"type\":\"event\",\"seq\":{seq},");
    match *ev {
        TraceEvent::PhaseEnter { phase } => {
            let _ = write!(
                out,
                "\"kind\":\"phase_enter\",\"phase\":\"{}\"",
                phase.label()
            );
        }
        TraceEvent::PhaseExit { phase } => {
            let _ = write!(
                out,
                "\"kind\":\"phase_exit\",\"phase\":\"{}\"",
                phase.label()
            );
        }
        TraceEvent::DeletionSelected { net, edge, tier } => {
            let _ = write!(
                out,
                "\"kind\":\"deletion_selected\",\"net\":{},\"edge\":{},\"tier\":\"{}\"",
                net.index(),
                edge,
                tier.label()
            );
        }
        TraceEvent::CascadeDeleted { net, edge } => {
            let _ = write!(
                out,
                "\"kind\":\"cascade_deleted\",\"net\":{},\"edge\":{}",
                net.index(),
                edge
            );
        }
        TraceEvent::Pruned { net, count } => {
            let _ = write!(
                out,
                "\"kind\":\"pruned\",\"net\":{},\"count\":{}",
                net.index(),
                count
            );
        }
        TraceEvent::NetBecameTree { net } => {
            let _ = write!(out, "\"kind\":\"net_became_tree\",\"net\":{}", net.index());
        }
        TraceEvent::RerouteAccepted { net } => {
            let _ = write!(out, "\"kind\":\"reroute_accepted\",\"net\":{}", net.index());
        }
        TraceEvent::RerouteRejected { net } => {
            let _ = write!(out, "\"kind\":\"reroute_rejected\",\"net\":{}", net.index());
        }
        TraceEvent::FeedCellsInserted { row, x, width } => {
            let _ = write!(
                out,
                "\"kind\":\"feed_cells_inserted\",\"row\":{row},\"x\":{x},\"width\":{width}"
            );
        }
        TraceEvent::BudgetExhausted { phase, steps } => {
            let _ = write!(
                out,
                "\"kind\":\"budget_exhausted\",\"phase\":\"{}\",\"steps\":{steps}",
                phase.label()
            );
        }
        TraceEvent::FallbackDeleted { net, edge } => {
            let _ = write!(
                out,
                "\"kind\":\"fallback_deleted\",\"net\":{},\"edge\":{}",
                net.index(),
                edge
            );
        }
        TraceEvent::AuditPassed { phase, checks } => {
            let _ = write!(
                out,
                "\"kind\":\"audit_passed\",\"phase\":\"{}\",\"checks\":{checks}",
                phase.label()
            );
        }
        TraceEvent::AuditStep { step, checks } => {
            let _ = write!(
                out,
                "\"kind\":\"audit_step\",\"step\":{step},\"checks\":{checks}"
            );
        }
    }
    out.push_str("}\n");
}

fn is_deterministic(line: &str) -> bool {
    line.contains("\"type\":\"event\"") || line.contains("\"type\":\"meta\"")
}

/// The deterministic prefix of a trace JSONL document: the `meta` line
/// plus every `"type":"event"` line, newline-terminated. This is the
/// content a golden trace file stores and exactly what
/// [`trace_divergence`] compares — counter, histogram and span lines
/// are machine- and strategy-dependent diagnostics and are dropped.
pub fn deterministic_lines(trace_text: &str) -> String {
    trace_text
        .lines()
        .filter(|l| is_deterministic(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compact first-divergence diff of two trace JSONL documents.
///
/// Compares only the deterministic prefix — the `meta` line and the
/// `"type":"event"` lines — because counters, histograms and spans are
/// diagnostics that legitimately vary across strategies, thread counts
/// and machines. Returns `None` when the deterministic prefixes are
/// byte-identical; otherwise a short report quoting the first line
/// number (1-based within the filtered prefix) where they part ways,
/// with both sides' lines (or `<end of trace>`).
pub fn trace_divergence(golden: &str, actual: &str) -> Option<String> {
    fn filter(text: &str) -> Vec<&str> {
        text.lines().filter(|l| is_deterministic(l)).collect()
    }
    let g = filter(golden);
    let a = filter(actual);
    let n = g.len().max(a.len());
    for i in 0..n {
        let gl = g.get(i).copied();
        let al = a.get(i).copied();
        if gl != al {
            return Some(format!(
                "first divergence at deterministic line {}:\n  golden: {}\n  actual: {}",
                i + 1,
                gl.unwrap_or("<end of trace>"),
                al.unwrap_or("<end of trace>"),
            ));
        }
    }
    None
}

/// The `"type":"event"` lines of a trace JSONL document only — no meta
/// line — newline-terminated: what [`write_event_lines`] writes
/// directly for a [`RouteTrace`].
pub fn deterministic_event_lines(trace_text: &str) -> String {
    trace_text
        .lines()
        .filter(|l| l.contains("\"type\":\"event\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The routing events of a trace JSONL document (or of its event lines
/// alone): every `"type":"event"` line but the self-audits'
/// (`audit_passed`, `audit_step`), renumbered from `seq` 0,
/// newline-terminated. A route emits audit events only at
/// `VerifyLevel::Phases` or `Steps`, and they change no decision, so a
/// route at any verify level yields the same routing events as one
/// without audits: this is how a route compares with a golden trace
/// whatever level it ran at.
///
/// # Panics
///
/// Panics on an event line without a `seq` followed by more fields,
/// which [`write_event_lines`] never writes.
pub fn routing_event_lines(trace_text: &str) -> String {
    trace_text
        .lines()
        .filter(|l| {
            l.contains("\"type\":\"event\"")
                && !l.contains("\"kind\":\"audit_passed\"")
                && !l.contains("\"kind\":\"audit_step\"")
        })
        .enumerate()
        .map(|(seq, l)| {
            let (head, tail) = l.split_once("\"seq\":").expect("event line has a seq");
            let tail = &tail[tail.find(',').expect("the seq is followed by the kind")..];
            format!("{head}\"seq\":{seq}{tail}\n")
        })
        .collect()
}

/// Validates a per-slice trace segment (event lines only, as produced
/// by [`write_event_lines`]) and returns its `seq` span as
/// `Some((first, last))`, or `None` for a segment with no events.
///
/// This is the frame-safety check `bgr_serve::JobQueue::apply_remote`
/// runs before splicing a remote worker's segment into a job stream:
/// every line must be a parsable `"type":"event"` record and the `seq`
/// numbers must be contiguous, so a truncated or reordered segment is
/// rejected as a structured error instead of silently corrupting the
/// stream.
///
/// # Errors
///
/// A message naming the first offending line (1-based) on non-event
/// lines, unparsable JSON, a missing `seq`, or a `seq` gap.
pub fn segment_seq_span(segment: &str) -> Result<Option<(u64, u64)>, String> {
    let mut span: Option<(u64, u64)> = None;
    for (i, line) in segment.lines().enumerate() {
        let lineno = i + 1;
        let v = crate::json::Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if v.get("type").and_then(crate::json::Json::as_str) != Some("event") {
            return Err(format!("line {lineno}: not a \"type\":\"event\" record"));
        }
        let seq = v
            .get("seq")
            .and_then(crate::json::Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: event lacks a seq"))?;
        span = match span {
            None => Some((seq, seq)),
            Some((first, last)) if seq == last + 1 => Some((first, seq)),
            Some((_, last)) => {
                return Err(format!(
                    "line {lineno}: seq {seq} does not continue {last} (segment not contiguous)"
                ))
            }
        };
    }
    Ok(span)
}

/// The `"type":"event"` lines of `trace` only, newline-terminated, with
/// `seq` numbers starting at `seq_offset`. This is the slice a resumed
/// session appends to its stream: concatenating the event lines of
/// every slice (each written at its checkpoint's `events_emitted`
/// offset) reproduces the uninterrupted run's event lines
/// byte-for-byte, `seq` included.
pub fn write_event_lines(trace: &RouteTrace, seq_offset: u64) -> String {
    let mut out = String::new();
    for (i, ev) in trace.events.iter().enumerate() {
        write_event(&mut out, seq_offset as usize + i, ev);
    }
    out
}

/// Serializes a trace as JSON lines (see the [module docs](self) for the
/// schema).
pub fn write_trace_jsonl(trace: &RouteTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"bgr-trace\",\"version\":1,\"events\":{}}}",
        trace.events.len()
    );
    out.push_str(&write_event_lines(trace, 0));
    for c in Counter::ALL {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            c.label(),
            trace.counter(c)
        );
    }
    for h in Hist::ALL {
        let buckets = trace
            .hist(h)
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"buckets\":[{buckets}]}}",
            h.label()
        );
    }
    for span in &trace.spans {
        let counters = Counter::ALL
            .iter()
            .map(|&c| format!("\"{}\":{}", c.label(), span.counters[c.index()]))
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"phase\":\"{}\",\"wall_us\":{},\"events\":{},\"counters\":{{{counters}}}}}",
            span.phase.label(),
            span.wall.as_micros(),
            span.events_len
        );
    }
    out
}

/// Aggregated analytics over one schema-v1 trace JSONL document — the
/// read-side counterpart of [`write_trace_jsonl`], computed entirely
/// from the serialized text so it works on archived traces from other
/// runs/machines (the `trace_query` CLI is a thin shell around it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Events declared by the meta line.
    pub meta_events: u64,
    /// `(kind, count)` per event kind, in first-appearance order.
    pub kind_counts: Vec<(String, u64)>,
    /// `(tier, count)` provenance breakdown over `deletion_selected`
    /// events, in first-appearance order.
    pub tier_counts: Vec<(String, u64)>,
    /// Deletion selections (`deletion_selected` events).
    pub selections: u64,
    /// Total deleted edges: selections + cascades + fallbacks + pruned
    /// edge counts.
    pub deletions: u64,
    /// `(name, value)` of every counter line, in document order (the
    /// per-[`bgr_core::RekeyCause`] `rekeys_*` provenance lives here).
    pub counters: Vec<(String, u64)>,
    /// `(name, buckets)` of every histogram line, in document order,
    /// summed bucket-wise over repeated names.
    pub hists: Vec<(String, Vec<u64>)>,
    /// `(phase, wall_us, events, key_evals)` per span line, summed over
    /// repeated phases (a resumed session emits one span per slice).
    pub phase_walls: Vec<(String, u64, u64, u64)>,
}

impl TraceStats {
    /// Parses a trace JSONL document and aggregates its statistics.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line (1-based) on
    /// any JSON or schema violation.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut stats = TraceStats::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let ty = record
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: record without \"type\"", i + 1))?;
            match ty {
                "meta" => {
                    stats.meta_events += record
                        .get("events")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("line {}: meta without \"events\"", i + 1))?;
                }
                "event" => {
                    let kind = record
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: event without \"kind\"", i + 1))?;
                    bump(&mut stats.kind_counts, kind, 1);
                    match kind {
                        "deletion_selected" => {
                            stats.selections += 1;
                            stats.deletions += 1;
                            if let Some(tier) = record.get("tier").and_then(Json::as_str) {
                                bump(&mut stats.tier_counts, tier, 1);
                            }
                        }
                        "cascade_deleted" | "fallback_deleted" => stats.deletions += 1,
                        "pruned" => {
                            stats.deletions +=
                                record.get("count").and_then(Json::as_u64).unwrap_or(0);
                        }
                        _ => {}
                    }
                }
                "counter" => {
                    let name = record
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: counter without \"name\"", i + 1))?;
                    let value = record.get("value").and_then(Json::as_u64).unwrap_or(0);
                    bump(&mut stats.counters, name, value);
                }
                "hist" => {
                    let name = record
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: hist without \"name\"", i + 1))?;
                    let buckets: Vec<u64> = record
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("line {}: hist without \"buckets\"", i + 1))?
                        .iter()
                        .map(|b| b.as_u64().unwrap_or(0))
                        .collect();
                    match stats.hists.iter_mut().find(|(n, _)| n == name) {
                        Some((_, sum)) => {
                            sum.resize(sum.len().max(buckets.len()), 0);
                            for (s, b) in sum.iter_mut().zip(&buckets) {
                                *s += b;
                            }
                        }
                        None => stats.hists.push((name.to_string(), buckets)),
                    }
                }
                "span" => {
                    let phase = record
                        .get("phase")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: span without \"phase\"", i + 1))?;
                    let wall = record.get("wall_us").and_then(Json::as_u64).unwrap_or(0);
                    let events = record.get("events").and_then(Json::as_u64).unwrap_or(0);
                    let key_evals = record
                        .get("counters")
                        .and_then(|c| c.get(Counter::KeyEval.label()))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    match stats.phase_walls.iter_mut().find(|row| row.0 == phase) {
                        Some(row) => {
                            row.1 += wall;
                            row.2 += events;
                            row.3 += key_evals;
                        }
                        None => {
                            stats
                                .phase_walls
                                .push((phase.to_string(), wall, events, key_evals))
                        }
                    }
                }
                other => return Err(format!("line {}: unknown record type {other:?}", i + 1)),
            }
        }
        Ok(stats)
    }

    /// One counter's value (0 when the document has no such line).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Human-readable digest.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events {} · selections {} · deletions {}",
            self.meta_events, self.selections, self.deletions
        );
        let _ = writeln!(out, "event kinds:");
        for (kind, n) in &self.kind_counts {
            let _ = writeln!(out, "  {kind:<24} {n:>8}");
        }
        if !self.tier_counts.is_empty() {
            let _ = writeln!(out, "deciding tiers:");
            for (tier, n) in &self.tier_counts {
                let _ = writeln!(out, "  {tier:<24} {n:>8}");
            }
        }
        if !self.phase_walls.is_empty() {
            let _ = writeln!(out, "phase wall-clock:");
            for (phase, wall_us, events, key_evals) in &self.phase_walls {
                let _ = writeln!(
                    out,
                    "  {phase:<24} {:>9.2}ms {events:>8} events {key_evals:>10} key evals",
                    *wall_us as f64 / 1_000.0
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<28} {v:>12}");
            }
        }
        for (name, buckets) in &self.hists {
            let _ = writeln!(out, "{name}:");
            let max = buckets.iter().copied().max().unwrap_or(0).max(1);
            for (i, &n) in buckets.iter().take(HIST_BUCKETS).enumerate() {
                if n > 0 {
                    let bar = "#".repeat((n * 30).div_ceil(max) as usize);
                    let _ = writeln!(out, "  {:>6} {n:>10}  {bar}", Hist::bucket_label(i));
                }
            }
        }
        out
    }

    /// Machine-readable digest (one JSON object, for CI consumers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":1,\"kind\":\"trace_stats\"");
        let _ = write!(
            out,
            ",\"events\":{},\"selections\":{},\"deletions\":{}",
            self.meta_events, self.selections, self.deletions
        );
        let fields = |pairs: &[(String, u64)]| {
            pairs
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", crate::json::escape_json(k)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(out, ",\"event_kinds\":{{{}}}", fields(&self.kind_counts));
        let _ = write!(out, ",\"deciding_tiers\":{{{}}}", fields(&self.tier_counts));
        let _ = write!(out, ",\"counters\":{{{}}}", fields(&self.counters));
        let hists = self
            .hists
            .iter()
            .map(|(name, buckets)| {
                let buckets: Vec<String> = buckets.iter().map(u64::to_string).collect();
                format!(
                    "\"{}\":[{}]",
                    crate::json::escape_json(name),
                    buckets.join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(out, ",\"hists\":{{{hists}}}");
        let spans = self
            .phase_walls
            .iter()
            .map(|(p, wall, events, key_evals)| {
                format!(
                    "{{\"phase\":\"{}\",\"wall_us\":{wall},\"events\":{events},\"key_evals\":{key_evals}}}",
                    crate::json::escape_json(p)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(out, ",\"phases\":[{spans}]}}");
        out
    }
}

fn bump(rows: &mut Vec<(String, u64)>, key: &str, by: u64) {
    match rows.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v += by,
        None => rows.push((key.to_string(), by)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::probe::{CollectingProbe, Phase, Probe};
    use bgr_core::DecidingTier;
    use bgr_netlist::NetId;

    fn sample_trace() -> RouteTrace {
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::DeletionSelected {
            net: NetId::new(2),
            edge: 5,
            tier: DecidingTier::DMax,
        });
        p.event(TraceEvent::Pruned {
            net: NetId::new(2),
            count: 3,
        });
        p.count(Counter::KeyEval, 42);
        p.sample(Hist::DirtySetSize, 6);
        p.phase_exit(Phase::InitialRouting);
        p.finish()
    }

    #[test]
    fn jsonl_has_one_record_per_line() {
        let text = write_trace_jsonl(&sample_trace());
        let lines: Vec<&str> = text.lines().collect();
        // meta + 4 events + one line per counter + per hist + 1 span.
        assert_eq!(
            lines.len(),
            1 + 4 + Counter::ALL.len() + Hist::ALL.len() + 1
        );
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"format\":\"bgr-trace\""));
    }

    #[test]
    fn jsonl_carries_provenance_and_diagnostics() {
        let text = write_trace_jsonl(&sample_trace());
        assert!(text.contains(
            "{\"type\":\"event\",\"seq\":1,\"kind\":\"deletion_selected\",\"net\":2,\"edge\":5,\"tier\":\"d_max\"}"
        ));
        assert!(text.contains("\"kind\":\"pruned\",\"net\":2,\"count\":3"));
        assert!(text.contains("{\"type\":\"counter\",\"name\":\"key_evals\",\"value\":42}"));
        // 6 lands in the 4-7 bucket (index 3).
        assert!(text.contains(
            "{\"type\":\"hist\",\"name\":\"dirty_set_size\",\"buckets\":[0,0,0,1,0,0,0,0]}"
        ));
        assert!(text.contains("\"type\":\"span\",\"phase\":\"initial_routing\""));
    }

    #[test]
    fn event_lines_are_wall_clock_free() {
        let text = write_trace_jsonl(&sample_trace());
        for line in text.lines().filter(|l| l.contains("\"type\":\"event\"")) {
            assert!(!line.contains("wall"), "{line}");
        }
    }

    #[test]
    fn degradation_events_serialize() {
        let mut p = CollectingProbe::new();
        p.event(TraceEvent::BudgetExhausted {
            phase: Phase::InitialRouting,
            steps: 12,
        });
        p.event(TraceEvent::FallbackDeleted {
            net: NetId::new(4),
            edge: 7,
        });
        let text = write_trace_jsonl(&p.finish());
        assert!(text
            .contains("\"kind\":\"budget_exhausted\",\"phase\":\"initial_routing\",\"steps\":12"));
        assert!(text.contains("\"kind\":\"fallback_deleted\",\"net\":4,\"edge\":7"));
    }

    #[test]
    fn audit_events_serialize() {
        let mut p = CollectingProbe::new();
        p.event(TraceEvent::AuditPassed {
            phase: Phase::ImproveArea,
            checks: 912,
        });
        p.event(TraceEvent::AuditStep {
            step: 64,
            checks: 912,
        });
        let text = write_trace_jsonl(&p.finish());
        assert!(
            text.contains("\"kind\":\"audit_passed\",\"phase\":\"improve_area\",\"checks\":912")
        );
        assert!(text.contains("\"kind\":\"audit_step\",\"step\":64,\"checks\":912"));
    }

    #[test]
    fn deterministic_lines_keep_meta_and_events_only() {
        let text = write_trace_jsonl(&sample_trace());
        let det = deterministic_lines(&text);
        assert_eq!(det.lines().count(), 5); // meta + 4 events
        assert!(det.lines().all(is_deterministic));
        // A golden holding only the deterministic prefix compares clean
        // against the full document.
        assert_eq!(trace_divergence(&det, &text), None);
    }

    #[test]
    fn routing_event_lines_drop_audits_and_renumber() {
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::AuditStep { step: 1, checks: 9 });
        p.event(TraceEvent::Pruned {
            net: NetId::new(2),
            count: 3,
        });
        p.phase_exit(Phase::InitialRouting);
        p.event(TraceEvent::AuditPassed {
            phase: Phase::InitialRouting,
            checks: 9,
        });
        let audited = write_trace_jsonl(&p.finish());
        let plain = write_trace_jsonl(&sample_trace());
        let want = "{\"type\":\"event\",\"seq\":0,\"kind\":\"phase_enter\",\"phase\":\"initial_routing\"}\n\
                    {\"type\":\"event\",\"seq\":1,\"kind\":\"pruned\",\"net\":2,\"count\":3}\n\
                    {\"type\":\"event\",\"seq\":2,\"kind\":\"phase_exit\",\"phase\":\"initial_routing\"}\n";
        assert_eq!(routing_event_lines(&audited), want);
        // Event lines alone give the same lines as the whole document,
        // and a stream without audits is its own routing events.
        assert_eq!(
            routing_event_lines(&deterministic_event_lines(&audited)),
            want
        );
        assert_eq!(
            routing_event_lines(&plain),
            deterministic_event_lines(&plain)
        );
    }

    #[test]
    fn trace_stats_aggregate_the_serialized_document() {
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::DeletionSelected {
            net: NetId::new(2),
            edge: 5,
            tier: DecidingTier::DMax,
        });
        p.event(TraceEvent::CascadeDeleted {
            net: NetId::new(3),
            edge: 5,
        });
        p.event(TraceEvent::Pruned {
            net: NetId::new(2),
            count: 3,
        });
        p.event(TraceEvent::DeletionSelected {
            net: NetId::new(4),
            edge: 0,
            tier: DecidingTier::OnlyCandidate,
        });
        p.count(Counter::KeyEval, 42);
        p.rekey(NetId::new(1), bgr_core::RekeyCause::Graph);
        p.sample(Hist::DirtySetSize, 6);
        p.phase_exit(Phase::InitialRouting);
        let text = write_trace_jsonl(&p.finish());

        let stats = TraceStats::from_jsonl(&text).expect("well-formed document");
        assert_eq!(stats.meta_events, 6); // 2 phase markers + 4 decision events
        assert_eq!(stats.selections, 2);
        assert_eq!(stats.deletions, 2 + 1 + 3);
        assert_eq!(stats.counter("key_evals"), 42);
        assert_eq!(stats.counter("rekeys_graph"), 1);
        assert_eq!(stats.counter("no_such_counter"), 0);
        let kinds: Vec<&str> = stats.kind_counts.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "phase_enter",
                "deletion_selected",
                "cascade_deleted",
                "pruned",
                "phase_exit"
            ]
        );
        assert_eq!(
            stats.tier_counts,
            [("d_max".to_string(), 1), ("only_candidate".to_string(), 1)]
        );
        assert_eq!(stats.phase_walls.len(), 1);
        assert_eq!(stats.phase_walls[0].0, "initial_routing");
        assert_eq!(stats.phase_walls[0].2, 4, "interior events of the span");
        assert_eq!(stats.phase_walls[0].3, 42, "key evals of the span");
        let dirty = stats.hists.iter().find(|(n, _)| n == "dirty_set_size");
        assert_eq!(
            dirty.map(|(_, b)| b.as_slice()),
            Some(&[0, 0, 0, 1, 0, 0, 0, 0][..])
        );

        let ascii = stats.to_ascii();
        assert!(ascii.contains("selections 2"), "{ascii}");
        assert!(ascii.contains("deletion_selected"), "{ascii}");
        assert!(ascii.contains("42 key evals"), "{ascii}");
        assert!(
            ascii.contains("dirty_set_size:\n     4-7          1  #"),
            "{ascii}"
        );

        let json = stats.to_json();
        let parsed = Json::parse(&json).expect("self-parsing digest");
        assert_eq!(parsed.get("selections").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed
                .get("deciding_tiers")
                .and_then(|t| t.get("d_max"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let dirty = parsed
            .get("hists")
            .and_then(|h| h.get("dirty_set_size"))
            .and_then(Json::as_arr)
            .map(|b| b.iter().filter_map(Json::as_u64).collect::<Vec<_>>());
        assert_eq!(dirty, Some(vec![0, 0, 0, 1, 0, 0, 0, 0]));
        let phases = parsed.get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(phases[0].get("key_evals").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn event_lines_are_the_documents_event_lines() {
        let trace = sample_trace();
        let document = deterministic_event_lines(&write_trace_jsonl(&trace));
        assert_eq!(write_event_lines(&trace, 0), document);
        // At an offset only the `seq` numbers move.
        let renumbered: String = document
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let seq = |n: usize| format!("{{\"type\":\"event\",\"seq\":{n},");
                format!("{}\n", l.replacen(&seq(i), &seq(i + 17), 1))
            })
            .collect();
        assert_ne!(renumbered, document);
        assert_eq!(write_event_lines(&trace, 17), renumbered);
        assert!(write_event_lines(&trace, 17).starts_with("{\"type\":\"event\",\"seq\":17,"));
    }

    #[test]
    fn trace_stats_reject_malformed_lines() {
        let err = TraceStats::from_jsonl("{\"type\":\"event\"}").expect_err("missing kind");
        assert!(err.contains("line 1"), "{err}");
        let err = TraceStats::from_jsonl("not json").expect_err("not json");
        assert!(err.contains("line 1"), "{err}");
        let err =
            TraceStats::from_jsonl("{\"type\":\"mystery\"}").expect_err("unknown record type");
        assert!(err.contains("mystery"), "{err}");
    }

    #[test]
    fn divergence_ignores_diagnostics_and_finds_first_event_mismatch() {
        let a = write_trace_jsonl(&sample_trace());
        assert_eq!(trace_divergence(&a, &a), None);

        // Same events, different counter totals: still no divergence.
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::DeletionSelected {
            net: NetId::new(2),
            edge: 5,
            tier: DecidingTier::DMax,
        });
        p.event(TraceEvent::Pruned {
            net: NetId::new(2),
            count: 3,
        });
        p.count(Counter::KeyEval, 9999);
        p.sample(Hist::DirtySetSize, 1);
        p.phase_exit(Phase::InitialRouting);
        let b = write_trace_jsonl(&p.finish());
        assert_eq!(trace_divergence(&a, &b), None);

        // A different event diverges, and the report quotes both sides.
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::DeletionSelected {
            net: NetId::new(3),
            edge: 5,
            tier: DecidingTier::DMax,
        });
        p.event(TraceEvent::Pruned {
            net: NetId::new(2),
            count: 3,
        });
        p.phase_exit(Phase::InitialRouting);
        let c = write_trace_jsonl(&p.finish());
        let diff = trace_divergence(&a, &c).unwrap();
        assert!(diff.contains("deterministic line 3"), "{diff}");
        assert!(
            diff.contains("\"net\":2") && diff.contains("\"net\":3"),
            "{diff}"
        );

        // A truncated trace reports <end of trace>.
        let truncated: String = a.lines().take(3).map(|l| format!("{l}\n")).collect();
        let diff = trace_divergence(&a, &truncated).unwrap();
        assert!(diff.contains("<end of trace>"), "{diff}");
    }
}
