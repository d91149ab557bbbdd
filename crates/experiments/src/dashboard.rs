//! Static perf-trajectory dashboard: `experiments dashboard` →
//! `results/dashboard.html`.
//!
//! Renders a [`BenchHistory`] as one
//! **self-contained** HTML page: every `*_speedup` (unit `x`) and
//! `*_calls_per_sec` (unit `calls/s`) series becomes a hand-rolled inline
//! SVG sparkline over commits, grouped per suite, with first/last/min/max
//! annotations and per-point commit tooltips. The full history JSON is
//! embedded in a `<script type="application/json">` block for downstream
//! tooling, so the page needs **no network access, no JavaScript and no
//! external assets** — it renders from `file://` on an air-gapped box,
//! like occlum/ngo's `window.BENCHMARK_DATA` page but without the CDN
//! chart library.
//!
//! Rendering is a pure function of the history document: no clocks, no
//! env, bit-identical output for identical input.

use crate::bench_history::{BenchHistory, HistoryPoint};

/// Sparkline geometry (CSS pixels).
const SPARK_W: f64 = 560.0;
const SPARK_H: f64 = 72.0;
const SPARK_PAD: f64 = 6.0;

/// One plotted series: the trajectory of a single entry name.
struct Series<'a> {
    name: &'a str,
    unit: &'a str,
    /// (commit id, commit message, value) per history point carrying it.
    points: Vec<(&'a str, &'a str, f64)>,
}

/// Escape text for HTML body/attribute positions.
fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Short commit id for axis labels.
fn short_id(id: &str) -> &str {
    &id[..id.len().min(9)]
}

/// The series a suite's points contribute to the dashboard: every
/// `*_speedup` ratio and every `*_calls_per_sec` throughput, keyed by
/// entry name in first-appearance order.
fn collect_series<'a>(points: &'a [HistoryPoint]) -> Vec<Series<'a>> {
    let mut series: Vec<Series<'a>> = Vec::new();
    for p in points {
        for b in &p.benches {
            let plotted = (b.name.ends_with("_speedup") && b.unit == "x")
                || (b.name.ends_with("_calls_per_sec") && b.unit == "calls/s");
            if !plotted {
                continue;
            }
            let idx = series
                .iter()
                .position(|s| s.name == b.name)
                .unwrap_or_else(|| {
                    series.push(Series {
                        name: &b.name,
                        unit: &b.unit,
                        points: Vec::new(),
                    });
                    series.len() - 1
                });
            series[idx]
                .points
                .push((&p.commit.id, &p.commit.message, b.value));
        }
    }
    series
}

/// Compact value formatting: engineering-style for large magnitudes.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// A hand-rolled SVG sparkline: polyline over the points, min/max-scaled,
/// with a circle and `<title>` tooltip per point. Flat or single-point
/// series draw a centered horizontal line.
fn sparkline(points: &[(&str, &str, f64)]) -> String {
    let lo = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
    let hi = points.iter().map(|p| p.2).fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::EPSILON);
    let flat = hi == lo;
    let n = points.len();
    let x = |i: usize| {
        if n <= 1 {
            SPARK_W / 2.0
        } else {
            SPARK_PAD + i as f64 * (SPARK_W - 2.0 * SPARK_PAD) / (n - 1) as f64
        }
    };
    let y = |v: f64| {
        if flat {
            SPARK_H / 2.0
        } else {
            SPARK_H - SPARK_PAD - (v - lo) / span * (SPARK_H - 2.0 * SPARK_PAD)
        }
    };
    let mut svg = format!(
        "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" \
         role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">"
    );
    let coords: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{:.1},{:.1}", x(i), y(p.2)))
        .collect();
    if n > 1 {
        svg.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\" points=\"{}\"/>",
            coords.join(" ")
        ));
    }
    for (i, (id, msg, v)) in points.iter().enumerate() {
        let last = i + 1 == n;
        svg.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{}\" fill=\"{}\"><title>{} — {}: {}</title></circle>",
            x(i),
            y(*v),
            if last { 3.0 } else { 2.0 },
            if last { "#dc2626" } else { "#2563eb" },
            escape_html(short_id(id)),
            escape_html(msg),
            fmt_value(*v),
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// JSON safe to inline in a `<script>` block: `<` escaped so a commit
/// message can never close the tag early.
fn embeddable_json(history: &BenchHistory) -> String {
    serde_json::to_string(history)
        .expect("history serialization is infallible")
        .replace('<', "\\u003c")
}

/// Render the whole dashboard page.
pub fn render(history: &BenchHistory) -> String {
    let mut out = String::from(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
         <title>Perf trajectory</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
         padding:0 1rem;color:#111827;background:#fff}\n\
         h1{font-size:1.4rem} h2{font-size:1.1rem;margin:2rem 0 .5rem;\
         border-bottom:1px solid #e5e7eb;padding-bottom:.25rem}\n\
         .series{display:grid;grid-template-columns:minmax(16rem,1fr) auto;gap:.25rem 1rem;\
         align-items:center;padding:.4rem 0;border-bottom:1px dotted #e5e7eb}\n\
         .meta{color:#374151} .meta b{color:#111827;font-variant-numeric:tabular-nums}\n\
         .name{font-family:ui-monospace,monospace;font-size:.85rem}\n\
         .unit{color:#6b7280}\n\
         </style>\n</head>\n<body>\n",
    );
    out.push_str(&format!(
        "<h1>Perf trajectory</h1>\n<p class=\"meta\">{} suite(s), {} history point(s); \
         last update {}.</p>\n",
        history.series.len(),
        history.depth(),
        escape_html(if history.last_update.is_empty() {
            "(never)"
        } else {
            &history.last_update
        }),
    ));
    for (suite, points) in &history.series {
        let series = collect_series(points);
        if series.is_empty() {
            continue;
        }
        out.push_str(&format!("<h2>{}</h2>\n", escape_html(suite)));
        for s in series {
            let first = s.points.first().expect("collected series are non-empty");
            let last = s.points.last().expect("collected series are non-empty");
            let lo = s.points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
            let hi = s
                .points
                .iter()
                .map(|p| p.2)
                .fold(f64::NEG_INFINITY, f64::max);
            out.push_str(&format!(
                "<div class=\"series\" data-series=\"{name}\">\n\
                 <div><div class=\"name\">{name} <span class=\"unit\">[{unit}]</span></div>\n\
                 <div class=\"meta\">last <b>{last_v}</b> @ {last_c} · first {first_v} · \
                 min {min_v} · max {max_v} · {n} pt(s)</div></div>\n{svg}\n</div>\n",
                name = escape_html(s.name),
                unit = escape_html(s.unit),
                last_v = fmt_value(last.2),
                last_c = escape_html(short_id(last.0)),
                first_v = fmt_value(first.2),
                min_v = fmt_value(lo),
                max_v = fmt_value(hi),
                n = s.points.len(),
                svg = sparkline(&s.points),
            ));
        }
    }
    out.push_str(&format!(
        "<script id=\"history\" type=\"application/json\">{}</script>\n</body>\n</html>\n",
        embeddable_json(history)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gps::BenchEntry;
    use crate::bench_history::{CommitMeta, HistoryPoint};

    fn entry(name: &str, value: f64, unit: &str) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    fn point(id: &str, scale: f64) -> HistoryPoint {
        HistoryPoint {
            commit: CommitMeta {
                id: id.into(),
                message: format!("msg <{id}> & \"quotes\""),
                timestamp: format!("2026-08-0{id}T00:00:00+00:00"),
            },
            benches: vec![
                entry("gps_churn_n16_speedup", 4.0 * scale, "x"),
                entry("gps_churn_n16_virtual_time", 100.0 / scale, "ns/iter"),
                entry("replay_c1e6_calls_per_sec", 6.0e5 * scale, "calls/s"),
                entry("gps_threads", 1.0, "count"),
            ],
        }
    }

    fn two_point_history() -> BenchHistory {
        let mut h = BenchHistory::new();
        h.last_update = "2026-08-02T00:00:00+00:00".into();
        h.series
            .push(("gps".into(), vec![point("1", 1.0), point("2", 1.1)]));
        h
    }

    #[test]
    fn renders_one_series_per_speedup_and_throughput_entry() {
        let html = render(&two_point_history());
        assert!(
            html.contains("data-series=\"gps_churn_n16_speedup\""),
            "{html}"
        );
        assert!(
            html.contains("data-series=\"replay_c1e6_calls_per_sec\""),
            "{html}"
        );
        // Timing and count entries are inputs to the gate, not dashboard
        // series of their own.
        assert!(!html.contains("data-series=\"gps_churn_n16_virtual_time\""));
        assert!(!html.contains("data-series=\"gps_threads\""));
        // Two points ⇒ a polyline plus per-point markers.
        assert!(html.contains("<polyline"), "{html}");
        assert_eq!(html.matches("<circle").count(), 4);
    }

    #[test]
    fn page_is_self_contained() {
        let html = render(&two_point_history());
        // No external fetches of any kind: the only URL-looking string is
        // the SVG namespace identifier, which browsers never dereference.
        let externals = html.matches("http").count();
        assert_eq!(
            externals,
            html.matches("http://www.w3.org/2000/svg").count(),
            "unexpected external reference in dashboard"
        );
        assert!(!html.contains("<link"), "external stylesheet");
        assert!(!html.contains("src="), "external script/image");
        // The raw history is embedded for downstream tooling, with `<`
        // escaped so commit messages cannot break out of the script block.
        assert!(html.contains("type=\"application/json\""));
        assert!(html.contains("\\u003c1>"), "commit message `<` unescaped");
    }

    #[test]
    fn tooltip_text_is_html_escaped_including_apostrophes() {
        assert_eq!(
            escape_html(r#"don't <b>&"x"</b>"#),
            "don&#39;t &lt;b&gt;&amp;&quot;x&quot;&lt;/b&gt;"
        );
        // A commit message with an apostrophe lands in a <title> tooltip;
        // it must arrive escaped so it can never terminate a single-quoted
        // attribute in downstream embeddings of the SVG.
        let mut p = point("1", 1.0);
        p.commit.message = "don't regress".into();
        let mut h = BenchHistory::new();
        h.series.push(("gps".into(), vec![p]));
        let html = render(&h);
        assert!(html.contains("don&#39;t regress"), "{html}");
    }

    #[test]
    fn single_point_and_flat_series_render_without_division_blowups() {
        let mut h = BenchHistory::new();
        h.series.push(("gps".into(), vec![point("1", 1.0)]));
        let html = render(&h);
        assert!(html.contains("data-series=\"gps_churn_n16_speedup\""));
        assert!(!html.contains("NaN"), "{html}");
        assert!(!html.contains("inf"), "{html}");
        // Flat two-point series (identical values) also stay finite.
        let mut flat = BenchHistory::new();
        flat.series
            .push(("gps".into(), vec![point("1", 1.0), point("2", 1.0)]));
        let html = render(&flat);
        assert!(!html.contains("NaN"), "{html}");
    }

    #[test]
    fn suites_without_plottable_series_are_omitted() {
        let mut h = BenchHistory::new();
        h.series.push((
            "only_timings".into(),
            vec![HistoryPoint {
                commit: CommitMeta {
                    id: "1".into(),
                    message: "m".into(),
                    timestamp: "t".into(),
                },
                benches: vec![entry("a_wall", 1.0, "ms/run")],
            }],
        ));
        let html = render(&h);
        assert!(!html.contains("<h2>only_timings</h2>"));
    }
}
