//! Incremental terminal view of a live run.
//!
//! [`render_live`] turns the current state of a
//! [`LiveAnalysis`] into one
//! repaintable text frame: a per-rank stats table whose right side is
//! an SOS heatmap strip over each rank's most recent closed segments,
//! followed by the hottest functions so far. `perfvar watch` clears the
//! screen and reprints the frame each poll, so the view updates in
//! place while the trace grows; the same renderer with
//! [`LiveViewOptions::color`] off produces the plain-text frame used in
//! tests and logs.
//!
//! Unlike [`crate::chart::sos_heatmap`] this needs no [`Trace`] and no
//! finished [`Analysis`](perfvar_analysis::Analysis) — it works from
//! the live snapshot alone, which is what makes it cheap enough to
//! repaint every poll.
//!
//! [`Trace`]: perfvar_trace::Trace

use crate::color::ColorScale;
use perfvar_analysis::live::LiveAnalysis;
use std::fmt::Write as _;

/// Options for [`render_live`].
#[derive(Clone, Copy, Debug)]
pub struct LiveViewOptions {
    /// Width of the per-rank heatmap strip, in segments (one character
    /// cell each; the newest segments win when a rank has more).
    pub width: usize,
    /// Maximum number of rank rows shown (evenly thinned above).
    pub max_rows: usize,
    /// Emit ANSI colour escapes (disable for plain text).
    pub color: bool,
    /// Number of hottest functions listed under the table.
    pub functions: usize,
}

impl Default for LiveViewOptions {
    fn default() -> LiveViewOptions {
        LiveViewOptions {
            width: 60,
            max_rows: 40,
            color: true,
            functions: 5,
        }
    }
}

/// Renders one frame of the live view.
pub fn render_live(live: &LiveAnalysis, opts: &LiveViewOptions) -> String {
    let snapshot = live.snapshot();
    let registry = live.registry();
    let mut out = String::new();
    let state = if snapshot.finished {
        "sealed"
    } else {
        "growing"
    };
    let target = match snapshot.target {
        Some(f) => registry.function_name(f).to_string(),
        None => "(predicting…)".to_string(),
    };
    let _ = writeln!(
        out,
        "live {:?} [{state}]  events {}  bytes {}  segment fn {}  prefix {:08x}",
        snapshot.name,
        snapshot.events,
        snapshot.bytes,
        target,
        (snapshot.fingerprint >> 96) as u32,
    );

    // Global SOS colour scale over every closed segment shown.
    let np = snapshot.ranks.len();
    let row_step = if opts.max_rows == 0 {
        1
    } else {
        np.div_ceil(opts.max_rows).max(1)
    };
    let shown: Vec<usize> = (0..np).step_by(row_step).collect();
    let scale = ColorScale::from_values(
        shown
            .iter()
            .flat_map(|&i| recent(live, i, opts.width))
            .map(|s| s.sos().0 as f64),
    );

    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>8} {:>12}  recent segments (cold → hot)",
        "rank", "events", "segs", "sos-ticks"
    );
    for &i in &shown {
        let r = &snapshot.ranks[i];
        let mark = if r.poisoned { "!" } else { "" };
        let _ = write!(
            out,
            "{:>8} {:>10} {:>8} {:>12}  ",
            format!("{i}{mark}"),
            r.events,
            r.segments,
            r.sos_total
        );
        for s in recent(live, i, opts.width) {
            let c = scale.heat(s.sos().0 as f64);
            if opts.color {
                let _ = write!(out, "\x1b[48;2;{};{};{}m \x1b[0m", c.r, c.g, c.b);
            } else {
                let ch = match c.luminance() as u32 {
                    0..=84 => '█',
                    85..=169 => '▓',
                    _ => '░',
                };
                out.push(ch);
            }
        }
        if r.poisoned {
            let _ = write!(out, " (stream error; frozen at last good state)");
        }
        out.push('\n');
    }

    if opts.functions > 0 && !snapshot.functions.is_empty() {
        let _ = writeln!(out, "hottest functions (inclusive ticks):");
        for f in snapshot.functions.iter().take(opts.functions) {
            let _ = writeln!(out, "  {:>12}  {:>10}×  {}", f.inclusive, f.count, f.name);
        }
    }
    out
}

/// The newest `width` closed segments of `rank`.
fn recent(
    live: &LiveAnalysis,
    rank: usize,
    width: usize,
) -> impl Iterator<Item = perfvar_analysis::Segment> + '_ {
    let closed = live.closed_segments(rank);
    let skip = closed.len().saturating_sub(width.max(1));
    closed.slice(skip..closed.len()).iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_analysis::live::LiveAnalysis;
    use perfvar_analysis::AnalysisConfig;
    use perfvar_sim::prelude::*;
    use perfvar_trace::format::live::LiveArchiveWriter;

    #[test]
    fn renders_a_plain_frame_for_a_sealed_run() {
        let trace = simulate(&workloads::SingleOutlier::new(3, 6, 1).spec()).unwrap();
        let dir = std::env::temp_dir().join("perfvar-viz-live-test.pvta");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w =
            LiveArchiveWriter::create(&dir, &trace.name, trace.clock(), trace.registry()).unwrap();
        for stream in trace.streams() {
            for r in stream.records() {
                w.append(stream.process, r).unwrap();
            }
        }
        w.finish().unwrap();

        let mut live = LiveAnalysis::open(&dir, AnalysisConfig::default()).unwrap();
        let delta = live.poll();
        assert!(delta.finished);
        let opts = LiveViewOptions {
            color: false,
            ..LiveViewOptions::default()
        };
        let frame = render_live(&live, &opts);
        assert!(frame.contains("[sealed]"), "{frame}");
        assert!(frame.contains("rank"), "{frame}");
        assert!(frame.contains("hottest functions"), "{frame}");
        // One row per rank.
        assert!(
            frame
                .lines()
                .filter(|l| l.contains('█') || l.contains('▓') || l.contains('░'))
                .count()
                >= 3,
            "{frame}"
        );
    }
}
