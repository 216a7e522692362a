//! The `flame` subcommand: collapsed-stack output from a span tree.
//!
//! `span_end` events carry the span's name, its content-derived
//! `id`/`parent` pair and, when allocation profiling was on, the
//! allocations the span observed (`alloc_n`/`alloc_b`). This module
//! folds the [`SpanForest`] built from them into the collapsed-stack
//! format every standard flamegraph tool consumes:
//!
//! ```text
//! svc.handle;svc.job_execute;sim.montecarlo 10452
//! svc.handle;svc.job_execute 311
//! ```
//!
//! One line per unique root-to-leaf path, weighted by the *self* share
//! of the chosen metric summed over the span's ends (a parent's weight
//! excludes its children, so summing every line reproduces the total).
//! A span with no `span_end` is absent: a parent walk stops below it.
//! Spans without ids (the plain [`vab_obs::Span`] guard) cannot be placed
//! in a tree; they render as root-level single-frame stacks.
//!
//! Because span identities are content-derived, the collapsed output of
//! a fixed-seed run is bit-identical at any worker count — the same
//! determinism contract the span-set gate relies on.

use std::collections::BTreeMap;

use crate::trace::{ForestSpan, SpanForest, Trace};

/// What a stack's weight counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Span duration, microseconds (`dur_us`).
    TimeUs,
    /// Bytes allocated inside the span (`alloc_b`).
    AllocBytes,
    /// Allocation count inside the span (`alloc_n`).
    AllocCount,
}

impl Weight {
    /// Parses the `--weight` CLI value.
    pub fn parse(s: &str) -> Result<Weight, String> {
        match s {
            "time" | "us" => Ok(Weight::TimeUs),
            "bytes" | "alloc-bytes" => Ok(Weight::AllocBytes),
            "allocs" | "alloc-count" => Ok(Weight::AllocCount),
            other => Err(format!("unknown weight {other:?} (expected time|bytes|allocs)")),
        }
    }

    fn of(self, span: &ForestSpan) -> u64 {
        match self {
            Weight::TimeUs => span.sum_us,
            Weight::AllocBytes => span.alloc_b,
            Weight::AllocCount => span.alloc_n,
        }
    }
}

/// Builds collapsed stacks from every `span_end` in `trace`, weighted by
/// `weight`. `job` restricts the fold to one trace id. Lines are sorted
/// lexicographically; zero-self-weight paths are omitted (collapsed
/// convention). Returns an error when no span matched.
pub fn collapse(trace: &Trace, weight: Weight, job: Option<u64>) -> Result<Vec<String>, String> {
    let forest = SpanForest::build(trace, job);
    if !forest.traces.values().flat_map(|t| t.values()).any(|s| s.ended)
        && forest.unplaced.is_empty()
    {
        return Err(match job {
            Some(j) => format!("no spans found for trace {j:016x}"),
            None => "no span_end events in trace".into(),
        });
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    let mut add = |path: String, w: u64| {
        lines.entry(path).and_modify(|sum: &mut u64| *sum = sum.saturating_add(w)).or_insert(w);
    };
    for spans in forest.traces.values() {
        for span in spans.values().filter(|s| s.ended) {
            // Self weight: a span minus its direct children (clamped —
            // clock jitter can make children sum past the parent).
            let kids =
                span.children.iter().fold(0u64, |sum, c| sum.saturating_add(weight.of(&spans[c])));
            let self_w = weight.of(span).saturating_sub(kids);
            if self_w == 0 {
                continue;
            }
            let mut path = vec![span.name.as_str()];
            let mut cursor = span.parent;
            for _ in 0..=64 {
                let Some(parent) = cursor.and_then(|p| spans.get(&p)).filter(|s| s.ended) else {
                    break;
                };
                path.push(parent.name.as_str());
                cursor = parent.parent;
            }
            path.reverse();
            add(path.join(";"), self_w);
        }
    }
    for (name, cost) in &forest.unplaced {
        let w = weight.of(cost);
        if w > 0 {
            add(name.clone(), w);
        }
    }
    Ok(lines.into_iter().map(|(path, w)| format!("{path} {w}")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, span: &str, id: &str, parent: &str, dur: u64, alloc_b: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"t_us\":{},\"target\":\"svc.pool\",\"event\":\"span_end\",\
             \"fields\":{{\"span\":\"{span}\",\"trace\":\"00000000000000aa\",\"id\":\"{id}\",\
             \"parent\":\"{parent}\",\"dur_us\":{dur},\"alloc_n\":3,\"alloc_b\":{alloc_b}}}}}",
            seq * 10
        )
    }

    fn tree_trace() -> Trace {
        // root (id 1) -> exec (id 2) -> mc (id 3)
        let text = format!(
            "{}\n{}\n{}\n",
            line(1, "sim.montecarlo", "0000000000000003", "0000000000000002", 700, 4096),
            line(2, "svc.job_execute", "0000000000000002", "0000000000000001", 1000, 5120),
            line(3, "svc.handle", "0000000000000001", "0000000000000000", 1200, 5120),
        );
        Trace::parse(&text)
    }

    #[test]
    fn collapses_tree_into_self_weighted_paths() {
        let lines = collapse(&tree_trace(), Weight::TimeUs, None).expect("collapse");
        assert_eq!(
            lines,
            vec![
                "svc.handle 200".to_string(),
                "svc.handle;svc.job_execute 300".to_string(),
                "svc.handle;svc.job_execute;sim.montecarlo 700".to_string(),
            ]
        );
        // Sum of self weights reproduces the root total.
        let total: u64 =
            lines.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(total, 1200);
    }

    #[test]
    fn byte_weighting_and_zero_self_omission() {
        let lines = collapse(&tree_trace(), Weight::AllocBytes, None).expect("collapse");
        // exec's 5120 bytes are entirely the child's: zero self, omitted.
        assert_eq!(
            lines,
            vec![
                "svc.handle;svc.job_execute;sim.montecarlo 4096".to_string(),
                // handle: 5120 - 5120 = 0 omitted; exec: 5120 - 4096 = 1024
                "svc.handle;svc.job_execute 1024".to_string(),
            ]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn job_filter_and_idless_spans() {
        let mut text =
            format!("{}\n", line(1, "svc.handle", "0000000000000001", "0000000000000000", 500, 0));
        // An id-less span (plain Span guard) plus an event from another trace.
        text.push_str(
            "{\"seq\":4,\"t_us\":50,\"target\":\"sim.campaign\",\"event\":\"span_end\",\
             \"fields\":{\"span\":\"run_campaign\",\"dur_us\":900}}\n",
        );
        text.push_str(
            "{\"seq\":5,\"t_us\":60,\"target\":\"svc.pool\",\"event\":\"span_end\",\
             \"fields\":{\"span\":\"svc.handle\",\"trace\":\"00000000000000bb\",\
             \"id\":\"0000000000000001\",\"parent\":\"0000000000000000\",\"dur_us\":111}}\n",
        );
        let t = Trace::parse(&text);
        let all = collapse(&t, Weight::TimeUs, None).expect("all");
        assert!(all.contains(&"run_campaign 900".to_string()), "{all:?}");
        // Same path from two traces aggregates into one collapsed line.
        assert!(all.contains(&"svc.handle 611".to_string()), "{all:?}");
        let one = collapse(&t, Weight::TimeUs, Some(0xaa)).expect("filtered");
        assert_eq!(one, vec!["svc.handle 500".to_string()]);
        assert!(collapse(&t, Weight::TimeUs, Some(0xdead)).is_err());
    }

    #[test]
    fn a_span_without_an_end_is_absent() {
        // exec (id 2) began but never ended: mc's parent walk stops below it.
        let exec = line(1, "svc.job_execute", "0000000000000002", "0000000000000001", 0, 0);
        let mc = line(2, "sim.montecarlo", "0000000000000003", "0000000000000002", 700, 0);
        let t = Trace::parse(&format!("{}\n{mc}\n", exec.replace("span_end", "span_begin")));
        let lines = collapse(&t, Weight::TimeUs, None).expect("collapse");
        assert_eq!(lines, vec!["sim.montecarlo 700".to_string()]);
    }

    #[test]
    fn weight_parse_accepts_aliases() {
        assert_eq!(Weight::parse("time"), Ok(Weight::TimeUs));
        assert_eq!(Weight::parse("bytes"), Ok(Weight::AllocBytes));
        assert_eq!(Weight::parse("allocs"), Ok(Weight::AllocCount));
        assert!(Weight::parse("flops").is_err());
    }
}
