//! Human-readable congestion reporting.
//!
//! The paper's heuristics are all about "keeping track of ... channel
//! densities"; this module renders the final density profile the way a
//! routing engineer would want to eyeball it: one histogram bar per
//! channel plus the hot columns. Trace digests live in
//! `bgr_io::TraceStats`.

use crate::result::{RoutingResult, Segment};

/// Per-channel congestion summary derived from a routing result.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionReport {
    /// Per channel: `(track estimate, hottest column, columns at max)`.
    pub channels: Vec<ChannelCongestion>,
}

/// Congestion of one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelCongestion {
    /// Channel index.
    pub channel: usize,
    /// Density maximum (`C_M`, the track estimate).
    pub tracks: i32,
    /// Leftmost column attaining the maximum.
    pub hottest_x: Option<i32>,
    /// Number of columns attaining the maximum.
    pub width_at_max: usize,
    /// Total trunk wirelength in the channel, in pitch·spans.
    pub trunk_pitches: i64,
}

impl CongestionReport {
    /// Builds the report from a routing result and the chip width in
    /// pitches.
    pub fn from_result(result: &RoutingResult, width_pitches: usize) -> Self {
        let num_channels = result.channel_tracks.len();
        let mut density = vec![vec![0i32; width_pitches]; num_channels];
        let mut trunk_pitches = vec![0i64; num_channels];
        for tree in &result.trees {
            for seg in &tree.segments {
                if let Segment::Trunk { channel, x1, x2 } = *seg {
                    let c = channel.index();
                    trunk_pitches[c] += (x2 - x1) as i64 * tree.width_pitches as i64;
                    for x in x1.max(0)..x2.min(width_pitches as i32) {
                        density[c][x as usize] += tree.width_pitches as i32;
                    }
                }
            }
        }
        let channels = density
            .into_iter()
            .enumerate()
            .map(|(c, d)| {
                let max = d.iter().copied().max().unwrap_or(0);
                ChannelCongestion {
                    channel: c,
                    tracks: max,
                    hottest_x: if max > 0 {
                        d.iter().position(|&v| v == max).map(|x| x as i32)
                    } else {
                        None
                    },
                    width_at_max: if max > 0 {
                        d.iter().filter(|&&v| v == max).count()
                    } else {
                        0
                    },
                    trunk_pitches: trunk_pitches[c],
                }
            })
            .collect();
        Self { channels }
    }

    /// Renders an ASCII histogram, one bar per channel.
    pub fn to_ascii(&self) -> String {
        let max = self.channels.iter().map(|c| c.tracks).max().unwrap_or(0);
        let mut out = String::new();
        for ch in &self.channels {
            let bar_len = if max > 0 {
                (ch.tracks as usize * 50) / max as usize
            } else {
                0
            };
            out.push_str(&format!(
                "channel {:>3} |{:<50}| {:>4} tracks",
                ch.channel,
                "#".repeat(bar_len),
                ch.tracks
            ));
            if let Some(x) = ch.hottest_x {
                out.push_str(&format!("  (peak at x={x}, {} cols)", ch.width_at_max));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::NetTree;
    use bgr_layout::ChannelId;

    fn result_with(trees: Vec<NetTree>, channels: usize) -> RoutingResult {
        RoutingResult {
            channel_tracks: vec![0; channels],
            net_lengths_um: vec![0.0; trees.len()],
            total_length_um: 0.0,
            timing: Default::default(),
            violations: None,
            stats: Default::default(),
            trees,
        }
    }

    fn tree(segs: Vec<Segment>, width: u32) -> NetTree {
        NetTree {
            segments: segs,
            length_um: 0.0,
            width_pitches: width,
            terminal_dists_um: Vec::new(),
        }
    }

    #[test]
    fn densities_and_peaks() {
        let trees = vec![
            tree(
                vec![Segment::Trunk {
                    channel: ChannelId::new(0),
                    x1: 0,
                    x2: 4,
                }],
                1,
            ),
            tree(
                vec![Segment::Trunk {
                    channel: ChannelId::new(0),
                    x1: 2,
                    x2: 6,
                }],
                2,
            ),
        ];
        let report = CongestionReport::from_result(&result_with(trees, 1), 10);
        let ch = &report.channels[0];
        // Columns: 1 1 3 3 2 2 0...
        assert_eq!(ch.tracks, 3);
        assert_eq!(ch.hottest_x, Some(2));
        assert_eq!(ch.width_at_max, 2);
        assert_eq!(ch.trunk_pitches, 4 + 8);
    }

    #[test]
    fn empty_channel_reports_zero() {
        let report = CongestionReport::from_result(&result_with(vec![], 2), 10);
        assert_eq!(report.channels.len(), 2);
        assert_eq!(report.channels[1].tracks, 0);
        assert_eq!(report.channels[1].hottest_x, None);
    }

    #[test]
    fn ascii_bars_scale() {
        let trees = vec![tree(
            vec![Segment::Trunk {
                channel: ChannelId::new(1),
                x1: 0,
                x2: 3,
            }],
            4,
        )];
        let report = CongestionReport::from_result(&result_with(trees, 2), 5);
        let text = report.to_ascii();
        assert!(text.contains("channel   0"));
        assert!(text.contains("channel   1"));
        assert!(text.contains("4 tracks"));
        // Channel 1 has the 50-char full bar, channel 0 an empty one.
        assert!(text.contains(&"#".repeat(50)));
    }
}
